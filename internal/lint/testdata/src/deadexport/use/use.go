// Package use consumes lib the way production code does.
package use

import "cooper/internal/lint/testdata/src/deadexport/lib"

var _ lib.Shape = lib.Square{}

// Consume is called from the main package.
func Consume() float64 {
	lib.Used()
	lib.Live()
	return lib.Square{Side: 2}.Perimeter()
}

// Command cmd is a main package: a consumer whose names are exempt.
package main

import "cooper/internal/lint/testdata/src/deadexport/use"

// Exported is referenced by nothing, and exempt.
func Exported() {}

func main() { use.Consume() }

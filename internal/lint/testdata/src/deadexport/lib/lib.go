// Package lib declares the names the deadexport fixture judges.
package lib

// Dead is referenced by nothing.
func Dead() {}

// Used is called from the consumer package.
func Used() {}

// Shape is named by the consumer package.
type Shape interface{ Area() float64 }

// Square satisfies Shape.
type Square struct{ Side float64 }

// Area is never called by name, but Square satisfies Shape.
func (s Square) Area() float64 { return s.Side * s.Side }

// String is read through fmt's dynamic checks.
func (s Square) String() string { return "square" }

// Perimeter is called only from the consumer package.
func (s Square) Perimeter() float64 { return 4 * s.Side }

// Kept is dead but suppressed.
//
//cooper:deadexport kept for the example
func Kept() {}

// Live is used, so its suppression is stale.
//
//cooper:deadexport stale reason
func Live() {}

// NoReason's suppression has no reason, so it silences nothing.
//
//cooper:deadexport
func NoReason() {}

// Package deadexport is the deadexport fixture's facade: the module
// root's public API, whose exported names are never flagged.
package deadexport

// Facade is referenced by nothing, and exempt.
func Facade() {}

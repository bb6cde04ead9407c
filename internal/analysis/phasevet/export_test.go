package phasevet

// CheckedWrappers exposes the suggested-wrapper table to the external
// tests.
var CheckedWrappers = checkedWrapper

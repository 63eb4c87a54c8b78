//go:build race

// Package israce reports whether the race detector is compiled in, for the
// allocation-count tests that cannot hold under it.
package israce

// Enabled is true when the build has the race detector on.
const Enabled = true

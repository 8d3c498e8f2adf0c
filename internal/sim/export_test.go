package sim

import (
	"testing"

	"acasxval/internal/acasx"
)

// SharedTable exposes the package tests' full-resolution logic table to the
// external sim_test package, so both build it at most once per test binary.
func SharedTable(tb testing.TB) *acasx.Table { return getTable(tb) }

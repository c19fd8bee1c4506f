package hotpath_test

import (
	"testing"

	"entropyip/internal/analysis/analysistest"
	"entropyip/internal/analysis/hotpath"
)

func TestHotpath(t *testing.T) {
	const pkg = "entropyip/internal/analysis/testdata/src/hotpath"
	a := hotpath.New(hotpath.Config{
		EntryPoints: []string{pkg + ".AppendRecord", pkg + ".Metrics.panicked", pkg + ".Renamed"},
		WarmFuncs:   []string{pkg + ".Handle", pkg + ".HandleJustified", pkg + ".Gone.Handle"},
	})
	analysistest.Run(t, "../testdata/src/hotpath", a)
}

// TestHotpathUnconfigured checks that with no declared functions in the
// package nothing is flagged.
func TestHotpathUnconfigured(t *testing.T) {
	a := hotpath.New(hotpath.Config{})
	analysistest.RunExpectClean(t, "../testdata/src/hotpath", a)
}

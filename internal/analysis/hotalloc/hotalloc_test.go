package hotalloc_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/hotalloc"
)

func TestHotAlloc(t *testing.T) {
	analysistest.Run(t, "testdata", hotalloc.Analyzer,
		"a/internal/core",  // flagging fixtures
		"a/internal/shard", // coordinator tier, in scope since issue 8
		"a/internal/ppvp",  // encoder, in scope since issue 18 (rules 1 and 3, package-wide)
		"a/other",          // out-of-scope package: no findings expected
	)
}

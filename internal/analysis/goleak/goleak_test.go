package goleak_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/goleak"
)

func TestGoleak(t *testing.T) {
	analysistest.Run(t, "testdata", goleak.Analyzer, "g/internal/shard")
}

package lockbalance_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/lockbalance"
)

func TestLockBalance(t *testing.T) {
	analysistest.Run(t, "testdata", lockbalance.Analyzer,
		"l/internal/shard", "l/other",
	)
}

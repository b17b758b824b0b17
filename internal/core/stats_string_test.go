package core

import (
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestStatsStringCoversShardsAndTrace: String reports the list lengths as
// well as the counter-table rows. Before issue 8 the summary silently
// dropped the per-shard breakdown and the trace timeline, so a logged
// coordinator query looked identical to a single-engine one.
func TestStatsStringCoversShardsAndTrace(t *testing.T) {
	s := &Stats{
		Shards: []ShardStat{{Shard: 0, Status: "ok"}, {Shard: 1, Status: "error"}},
		Trace:  []obs.TraceEvent{{Name: "decode", LOD: obs.NoLOD}},
	}
	out := s.String()
	if !strings.Contains(out, "shards=2") {
		t.Errorf("String() omits the shard breakdown: %q", out)
	}
	if !strings.Contains(out, "trace_events=1") {
		t.Errorf("String() omits the trace events: %q", out)
	}
	// And a plain single-engine Stats must not grow noise fields.
	plain := (&Stats{}).String()
	if strings.Contains(plain, "shards=") || strings.Contains(plain, "trace_events=") {
		t.Errorf("empty Stats should omit shard/trace fields: %q", plain)
	}
}

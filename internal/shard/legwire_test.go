package shard

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// randList returns nil, one to five elements from gen, or, when empty is
// set, an empty slice.
func randList[T any](rng *rand.Rand, empty bool, gen func() T) []T {
	switch rng.Intn(3) {
	case 0:
		return nil
	case 1:
		if empty {
			return []T{}
		}
	}
	s := make([]T, 1+rng.Intn(5))
	for i := range s {
		s[i] = gen()
	}
	return s
}

// TestLegStatsRoundTrip: random leg Stats — phase times up to 1e15 ns, nil,
// empty and ragged LOD slices, nil and non-empty lists — come back from the
// wire envelope reflect.DeepEqual. (An empty list comes back nil, which
// every reader, Merge included, treats the same.)
func TestLegStatsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	small := func() int64 { return rng.Int63n(1000) - 1 }
	for n := 0; n < 500; n++ {
		st := &core.Stats{
			PairsEvaluated: randList(rng, true, small),
			PairsPruned:    randList(rng, true, small),
			Uncertain:      randList(rng, false, func() core.Pair { return core.Pair{Target: small(), Source: small()} }),
			UncertainIDs:   randList(rng, false, small),
			Degraded: randList(rng, false, func() core.ObjectError {
				return core.ObjectError{Dataset: "nuclei", Object: small(), Err: "decode: boom \"quoted\"\n"}
			}),
			Trace: randList(rng, false, func() obs.TraceEvent {
				return obs.TraceEvent{Name: "geom", LOD: int(small()), Count: small(), FirstUS: small(), LastUS: small(), TotalUS: small()}
			}),
		}
		for _, c := range core.Counters {
			if c.Millis() {
				*c.Field(st) = rng.Int63n(1e15)
			} else {
				*c.Field(st) = rng.Int63()
			}
		}
		raw, err := json.Marshal(wireResponse{Resp: &Response{}, Stats: newLegStats(st)})
		if err != nil {
			t.Fatal(err)
		}
		var back wireResponse
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatal(err)
		}
		got, err := back.Stats.stats()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, st) {
			t.Fatalf("leg stats do not round-trip:\n sent %+v\n got  %+v\n wire %s", st, got, raw)
		}
	}
}

package core

import (
	"cmp"
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"
)

// TestKNNBoundSeed pins what the kNN bound seed may not change. A candidate
// is evaluated under min(its own MAXDIST, the running k-th MAXDIST) instead
// of its own MAXDIST alone; the answer — neighbours, ranks, distances to the
// last bit — must stay what the independent sdbms engine computes from the
// fully decoded objects, under every accelerator, scheduler and error
// policy, and the work counters must stay what the candidate's own bound
// produced: the tighter seed only lets the kernels stop sooner inside an
// evaluation, it never adds, drops or moves one. The counter values are the
// parent commit's, recorded with this test before the seed changed.
func TestKNNBoundSeed(t *testing.T) {
	e := testEngine(t)
	_, _, target, source := buildPartitionedPairs(t, e)
	ref := newReference(t, target, source)
	lods := make([]int, target.MaxLOD()+1)
	for i := range lods {
		lods[i] = i // pinned, so the margin runs do not depend on calibration history
	}

	type counts struct {
		Results, Candidates int64
		PairsEvaluated      []int64
	}
	// Per k and scheduler: under the whole-object filter tree, and under the
	// sub-object tree the partition accelerators filter with.
	want := map[string][2]counts{
		"k=1/static": {{10, 73, []int64{39, 21, 15, 13}}, {10, 56, []int64{37, 21, 15, 13}}},
		"k=1/margin": {{10, 73, []int64{25, 19, 12, 12}}, {10, 56, []int64{25, 19, 12, 12}}},
		"k=3/static": {{30, 89, []int64{89, 13, 8, 31}}, {30, 66, []int64{66, 13, 8, 31}}},
		"k=3/margin": {{30, 89, []int64{34, 11, 7, 30}}, {30, 66, []int64{34, 11, 7, 30}}},
	}

	for _, k := range []int{1, 3} {
		// The reference ranking: every source by exact distance, ties by id.
		var wantNs []Neighbor
		for ti := 0; ti < target.Len(); ti++ {
			var row []Neighbor
			for si := 0; si < source.Len(); si++ {
				row = append(row, Neighbor{Target: int64(ti), Source: int64(si), Dist: ref.dist(ti, si)})
			}
			slices.SortFunc(row, func(a, b Neighbor) int {
				return cmp.Or(cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.Source, b.Source))
			})
			wantNs = append(wantNs, row[:k]...)
		}
		for _, sched := range []Sched{SchedStatic, SchedMargin} {
			group := fmt.Sprintf("k=%d/%v", k, sched)
			for _, accel := range allAccels {
				for _, policy := range []ErrorPolicy{FailFast, Degrade} {
					name := fmt.Sprintf("%s/%v/%v", group, accel, policy)
					q := QueryOptions{Paradigm: FPR, Accel: accel, Sched: sched, OnError: policy, K: k, LODs: lods}
					got, st, err := e.KNNJoin(context.Background(), target, source, q)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if !reflect.DeepEqual(got, wantNs) {
						t.Errorf("%s: neighbours differ from sdbms\n got %v\nwant %v", name, got, wantNs)
					}
					wantC := want[group][0]
					if accel == Partition || accel == PartitionGPU {
						wantC = want[group][1]
					}
					if c := (counts{st.Results, st.Candidates, st.PairsEvaluated}); !reflect.DeepEqual(c, wantC) {
						t.Errorf("%s: counters %+v, the candidate's own bound gave %+v", name, c, wantC)
					}
				}
			}
		}
	}
}

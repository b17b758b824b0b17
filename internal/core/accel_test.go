package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/mesh"
)

// buildPartitionedPairs ingests an overlapping pair (ia, ib) and an
// interior-disjoint pair (wa, wb) of nuclei datasets like buildPair and
// buildDisjointPair do, but with a partition target small enough that every
// object splits into several sub-object groups, so the Partition
// accelerators run their multi-group paths.
func buildPartitionedPairs(t *testing.T, e *Engine) (ia, ib, wa, wb *Dataset) {
	t.Helper()
	opts := fastDatasetOptions()
	opts.PartitionTargetFaces = 16
	build := func(name string, ms []*mesh.Mesh) *Dataset {
		d, err := e.BuildDataset(name, ms, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, skel := range d.skeletons {
			if len(skel) < 2 {
				t.Fatalf("%s: object left unpartitioned (%d skeleton points)", name, len(skel))
			}
		}
		return d
	}
	gen := datagen.NucleiOptions{Count: 12, SubdivisionLevel: 1, Seed: 21}
	ia = build("partA", datagen.Nuclei(gen))
	gen.Seed, gen.Offset = 22, geom.V(2.5, 1.5, 1)
	ib = build("partB", datagen.Nuclei(gen))
	space := geom.Box3{Min: geom.V(0, 0, 0), Max: geom.V(60, 60, 60)}
	ma, mb := datagen.NucleiPair(datagen.NucleiOptions{Count: 10, SubdivisionLevel: 1, Seed: 31, Space: space})
	return ia, ib, build("partDisjA", ma), build("partDisjB", mb)
}

// runQuery executes one query of any kind and returns its answer in a
// comparable form plus the stats. Joins go through runJoin; "knn", "point"
// and "range" cover the kinds it does not.
func runQuery(t *testing.T, e *Engine, kind string, target, source *Dataset, q QueryOptions) (any, *Stats) {
	t.Helper()
	ctx := context.Background()
	switch kind {
	case "intersect":
		return runJoin(t, e, IntersectKind, target, source, 0, q)
	case "within":
		return runJoin(t, e, WithinKind, target, source, 12, q)
	case "nn":
		return runJoin(t, e, NNKind, target, source, 0, q)
	case "knn":
		q.K = 3
		ns, st, err := e.KNNJoin(ctx, target, source, q)
		if err != nil {
			t.Fatal(err)
		}
		return ns, st
	case "point":
		// The centroid of an object of the dataset: inside at least that one.
		c := target.Tileset.Object(3).MBB().Center()
		ids, st, err := e.ContainingObjects(ctx, target, c, q)
		if err != nil {
			t.Fatal(err)
		}
		return ids, st
	case "range":
		b := target.Tileset.Object(3).MBB()
		box := geom.Box3{Min: b.Min.Sub(geom.V(3, 3, 3)), Max: b.Center()}
		ids, st, err := e.RangeQuery(ctx, target, box, q)
		if err != nil {
			t.Fatal(err)
		}
		return ids, st
	}
	t.Fatalf("unknown query kind %q", kind)
	return nil, nil
}

// TestWarmEngineEquivalence is the memo's correctness contract: an engine
// whose cached meshes already carry accelerators — built by earlier queries
// under other accelerators, with the SoA lanes re-laid in tree order along
// the way — answers every query byte-for-byte like an engine that builds
// everything from scratch for that query.
func TestWarmEngineEquivalence(t *testing.T) {
	warm, cold := testEngine(t), testEngine(t)
	type data struct{ ia, ib, wa, wb *Dataset }
	build := func(e *Engine) data {
		var d data
		d.ia, d.ib, d.wa, d.wb = buildPartitionedPairs(t, e)
		return d
	}
	dw, dc := build(warm), build(cold)

	cases := []struct {
		kind string
		pick func(d data) (*Dataset, *Dataset)
	}{
		{"intersect", func(d data) (*Dataset, *Dataset) { return d.ia, d.ib }},
		{"within", func(d data) (*Dataset, *Dataset) { return d.wa, d.wb }},
		{"nn", func(d data) (*Dataset, *Dataset) { return d.wa, d.wb }},
		{"knn", func(d data) (*Dataset, *Dataset) { return d.wa, d.wb }},
		{"intersect", func(d data) (*Dataset, *Dataset) { return d.ia, d.ia }}, // self-joins
		{"within", func(d data) (*Dataset, *Dataset) { return d.wa, d.wa }},
		{"point", func(d data) (*Dataset, *Dataset) { return d.ia, nil }},
		{"range", func(d data) (*Dataset, *Dataset) { return d.ia, nil }},
	}
	for _, c := range cases {
		// ref is the case's first answer (BruteForce); every accelerator must
		// reproduce it, which also holds the multi-group partition paths and
		// the bounded kernels to the unpruned pairwise reference.
		var ref any
		for _, accel := range allAccels {
			for _, policy := range []ErrorPolicy{FailFast, Degrade} {
				q := QueryOptions{Paradigm: FPR, Accel: accel, OnError: policy}
				name := fmt.Sprintf("%s/%v/%v", c.kind, accel, policy)

				// Fresh: nothing decoded, nothing memoized.
				cold.Cache().Clear()
				ct, cs := c.pick(dc)
				want, _ := runQuery(t, cold, c.kind, ct, cs, q)
				if ref == nil {
					ref = want
				} else if !reflect.DeepEqual(want, ref) {
					t.Errorf("%s: answer differs from the brute-force reference\n got %v\nwant %v", name, want, ref)
				}

				// Warm: whatever every earlier iteration left behind.
				wt, ws := c.pick(dw)
				got, _ := runQuery(t, warm, c.kind, wt, ws, q)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: warm engine differs from fresh\n got %v\nwant %v", name, got, want)
				}
			}
		}
	}
}

// TestAccelBuildsOnlyWhenCold pins the mechanism: the first query builds
// the accelerators it needs, an identical second query builds none and is
// served from the memos, and once the cache has dropped the meshes the
// builds come back.
func TestAccelBuildsOnlyWhenCold(t *testing.T) {
	for _, accel := range []Accel{AABB, Partition, PartitionGPU} {
		e := testEngine(t)
		_, _, a, b := buildPartitionedPairs(t, e)
		q := QueryOptions{Paradigm: FPR, Accel: accel}

		want, first := runQuery(t, e, "within", a, b, q)
		if first.AccelBuilds == 0 {
			t.Fatalf("%v: cold query built no accelerators: %v", accel, first)
		}
		got, second := runQuery(t, e, "within", a, b, q)
		if second.AccelBuilds != 0 || second.AccelReuses == 0 {
			t.Errorf("%v: warm query builds=%d reuses=%d, want 0 and > 0",
				accel, second.AccelBuilds, second.AccelReuses)
		}
		if second.Decodes != 0 {
			t.Errorf("%v: warm query decoded %d objects; the cache evicted under the memo charge", accel, second.Decodes)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: warm answer differs", accel)
		}

		e.Cache().Clear()
		_, third := runQuery(t, e, "within", a, b, q)
		if third.AccelBuilds == 0 {
			t.Errorf("%v: query after eviction built no accelerators: the memo outlived its cache entry", accel)
		}
	}
}

// TestAcceleratorsChargedToCache checks the end-to-end accounting: what the
// cache reports as used is what its resident meshes, accelerators included,
// report as their footprint — and it rises when a query builds trees.
func TestAcceleratorsChargedToCache(t *testing.T) {
	e := testEngine(t)
	a, b := buildDisjointPair(t, e)
	ctx := context.Background()

	if _, _, err := e.WithinJoin(ctx, a, b, 12, QueryOptions{Paradigm: FR, Accel: BruteForce}); err != nil {
		t.Fatal(err)
	}
	plain := e.Cache().Stats().BytesUsed
	// Every resident mesh now carries its SoA memo, block lanes included:
	// the books hold the 15 lanes and the block boxes of each, and nothing
	// unexplained beyond the per-entry overhead.
	var meshes, lanes, blocks, entries int64
	for _, d := range []*Dataset{a, b} {
		for id := int64(0); id < int64(d.Len()); id++ {
			m := e.Cache().Get(cacheKey(d, id, d.MaxLOD()))
			if m == nil {
				continue // never a candidate: not decoded
			}
			soa := m.SoA()
			if soa.BlockBytes() != int64((soa.Len()+geom.BlockSize-1)/geom.BlockSize)*6*8 {
				t.Fatalf("object %d: %d B of block lanes for %d faces", id, soa.BlockBytes(), soa.Len())
			}
			if got, want := m.FootprintBytes(), int64(len(m.Vertices))*24+int64(len(m.Faces))*12+soa.Bytes(); got != want {
				t.Fatalf("object %d: footprint %d, want %d (mesh + lanes + block lanes)", id, got, want)
			}
			meshes += m.FootprintBytes() - soa.Bytes()
			lanes += soa.Bytes() - soa.BlockBytes()
			blocks += soa.BlockBytes()
			entries++
		}
	}
	if overhead := plain - meshes - lanes - blocks; entries == 0 || blocks == 0 || overhead < 0 || overhead > 128*entries {
		t.Errorf("BytesUsed %d = meshes %d + lanes %d + block lanes %d + %d over %d entries: block lanes are not in the books",
			plain, meshes, lanes, blocks, overhead, entries)
	}
	if _, _, err := e.WithinJoin(ctx, a, b, 12, QueryOptions{Paradigm: FR, Accel: AABB}); err != nil {
		t.Fatal(err)
	}
	withTrees := e.Cache().Stats().BytesUsed
	if withTrees <= plain {
		t.Errorf("BytesUsed %d did not grow past %d after building trees on cached meshes", withTrees, plain)
	}
}

// cacheKey is the decode-cache key of object id of d at lod.
func cacheKey(d *Dataset, id int64, lod int) cache.Key {
	return cache.Key{Object: blobOf(d, id), LOD: lod}
}

// blobOf is the blob ID of object id of d: its decode-cache and quarantine
// identity.
func blobOf(d *Dataset, id int64) int64 { return d.Tileset.Object(id).Comp.ID() }

package main

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/mesh"
)

const (
	// ingestPool is the number of distinct batches generated up front
	// (untimed) and ingested in turn. The pool is also most of the live heap,
	// and so sets how often the collector runs: with 48 batches an op took
	// 59 ms, with 256 it takes 47 ms.
	ingestPool = 256
	// ingestPass is how many ops make a pass; a run ends between passes.
	ingestPass = 16
	// ingestCacheBytes bounds both engines' decode caches: every op creates
	// datasets that are never queried again, and with the default budget the
	// process would grow with the number of ops completed.
	ingestCacheBytes = 16 << 20
)

// ingestReload is the write side: build a fresh batch, save it, load it on a
// second engine, and read every object back with one range query.
type ingestReload struct {
	batches [][]*mesh.Mesh
	next    int // the batch the next op ingests; one client, so no lock
	builder *core.Engine
	loader  *core.Engine
	dir     string
}

func (w *ingestReload) name() string      { return "ingest-reload" }
func (w *ingestReload) clients() int      { return 1 }
func (w *ingestReload) passLen() int      { return ingestPass }
func (w *ingestReload) classes() []string { return []string{"ingest"} }

// generate draws the batches from the seed itself (not from the canonical
// tissue): each is a small tissue of four nuclei around one vessel, and a
// run averages over hundreds of them.
func (w *ingestReload) generate(seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	space := geom.Box3{Min: geom.V(0, 0, 0), Max: geom.V(40, 40, 40)}
	h := newInputHasher()
	w.batches = make([][]*mesh.Mesh, ingestPool)
	for i := range w.batches {
		nuclei, vessels := datagen.Tissue(datagen.TissueOptions{
			Nuclei:  datagen.NucleiOptions{Count: 4, SubdivisionLevel: 2, Space: space, Seed: rng.Int63()},
			Vessels: datagen.VesselOptions{Count: 1, Space: space, Seed: rng.Int63(), RingSegments: 8, PathPoints: 8},
		})
		w.batches[i] = append(nuclei, vessels...)
		h.meshes(w.batches[i])
	}
	return h.sum()
}

// setUp creates both engines and takes the first pass of batches through
// the whole op: the time until a fresh process has ingested its first 16
// batches. (One batch alone is 45 ms, too little to time within a quarter.)
func (w *ingestReload) setUp(scratch string) (stored, raw int64, err error) {
	w.dir = filepath.Join(scratch, "batch")
	w.builder = core.NewEngine(core.EngineOptions{CacheBytes: ingestCacheBytes})
	w.loader = core.NewEngine(core.EngineOptions{CacheBytes: ingestCacheBytes})
	w.next = 0
	for i := 0; i < ingestPass; i++ {
		o := w.do(0, i, nil, -1)
		if o.err != nil {
			return 0, 0, o.err
		}
		stored, raw = stored+o.stored, raw+o.raw
	}
	return stored, raw, nil
}

func (w *ingestReload) tearDown() {
	if w.builder != nil {
		w.builder.Close()
		w.loader.Close()
		w.builder, w.loader = nil, nil
	}
}

// prepare has nothing to answer: the reference answer of every op is the id
// set of its own batch.
func (w *ingestReload) prepare() error { return nil }

func (w *ingestReload) do(_, _ int, tr *tracer, opSpan int) outcome {
	batch := w.batches[w.next%len(w.batches)]
	w.next++
	out := outcome{raw: rawBytes(batch)}
	if out.err = os.RemoveAll(w.dir); out.err != nil {
		return out
	}
	t0 := time.Now()
	built, err := w.builder.BuildDataset("batch", batch, datasetOptions(8))
	if err != nil {
		out.err = err
		return out
	}
	t1 := time.Now()
	tr.add("core.build", opSpan, t0, t1.Sub(t0))
	if out.err = built.SaveDataset(w.dir); out.err != nil {
		return out
	}
	t2 := time.Now()
	tr.add("storage.save", opSpan, t1, t2.Sub(t1))
	loaded, err := w.loader.LoadDataset(w.dir)
	if err != nil {
		out.err = err
		return out
	}
	t3 := time.Now()
	tr.add("core.load", opSpan, t2, t3.Sub(t2))
	ids, st, err := w.loader.RangeQuery(context.Background(), loaded, loaded.Tree().Bounds().Expand(1),
		core.QueryOptions{Paradigm: core.FPR, Accel: core.AABB, Trace: tr != nil})
	tr.addQuery(opSpan, t3, st)
	out.stats = st
	if err != nil {
		out.err = err
		return out
	}
	want := make([]int64, len(batch))
	for id := range want {
		want[id] = int64(id)
	}
	if out.err = sumIDs(ids).check(sumIDs(want)); out.err != nil {
		return out
	}
	out.stored, out.err = dirBytes(w.dir)
	return out
}

func (w *ingestReload) layerCounters() counters {
	var c counters
	for _, e := range []*core.Engine{w.builder, w.loader} {
		cs := e.Cache().Stats()
		c.evictions += cs.Evictions
		c.residentBytes += cs.BytesUsed
		c.decodeFailure += cs.DecodeFailures
	}
	return c
}

func (w *ingestReload) probe(seed int64, scratch string, m map[string]float64) error {
	var all []*mesh.Mesh
	for _, b := range w.batches {
		all = append(all, b...)
	}
	return probeLayers(seed, scratch, m, nil, nil, all)
}

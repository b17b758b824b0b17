package shard_test

// Loans by reference: a worker resolves a loaned object to a blob it
// already holds — an installed group, or a blob shipped with an earlier
// query — by object ID and blob CRC, so loans hit the worker's decode cache
// like home objects do, and a blob crosses the wire only when the worker
// holds no copy of exactly it.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/faultinject"
	"repro/internal/geom"
	"repro/internal/leakcheck"
	"repro/internal/ppvp"
	"repro/internal/shard"
	"repro/internal/storage"
)

// checkLoanJoins runs an intersect, a within and a kNN join through c,
// fails the test unless each answer is the unsharded engine's, and returns
// the joins' stats.
func checkLoanJoins(t *testing.T, e *core.Engine, c *shard.Coordinator, a, b, da, db *core.Dataset, q core.QueryOptions) []*core.Stats {
	t.Helper()
	ctx := context.Background()
	wantInt, _, err := e.IntersectJoin(ctx, a, b, q)
	if err != nil {
		t.Fatal(err)
	}
	gotInt, st1, err := c.IntersectJoin(ctx, a.Name, b.Name, q)
	if err != nil {
		t.Fatal(err)
	}
	wantWithin, _, err := e.WithinJoin(ctx, da, db, 8, q)
	if err != nil {
		t.Fatal(err)
	}
	gotWithin, st2, err := c.WithinJoin(ctx, da.Name, db.Name, 8, q)
	if err != nil {
		t.Fatal(err)
	}
	kq := q
	kq.K = 3
	wantKNN, _, err := e.KNNJoin(ctx, da, db, kq)
	if err != nil {
		t.Fatal(err)
	}
	gotKNN, st3, err := c.KNNJoin(ctx, da.Name, db.Name, kq)
	if err != nil {
		t.Fatal(err)
	}
	if !sameSlice(gotInt, wantInt) || !sameSlice(gotWithin, wantWithin) || !sameSlice(gotKNN, wantKNN) {
		t.Fatal("sharded answers differ from the unsharded engine's")
	}
	return []*core.Stats{st1, st2, st3}
}

// TestLoansHitWorkerCache: with every group on every worker (Shards =
// Replicas = 2), each loan is a blob the worker holds, so on a warm tier a
// repeated join decodes nothing and builds no accelerator on any worker,
// and no loan blob ever crosses a worker's listener.
func TestLoansHitWorkerCache(t *testing.T) {
	leakcheck.Check(t)
	e := core.NewEngine(testEngineOptions())
	defer e.Close()
	a, b := buildPair(t, e)
	da, db := buildDisjointPair(t, e)
	q := core.QueryOptions{Accel: core.AABB}
	// Over the loopback HTTP fleet, the transport every coordinator uses.
	t.Run("http", func(t *testing.T) {
		cl := startHTTPCluster(t, shard.Options{Shards: 2, Replicas: 2}, a, b, da, db)

		var builds int64
		for _, st := range checkLoanJoins(t, e, cl.coord, a, b, da, db, q) {
			builds += st.AccelBuilds
		}
		if builds == 0 {
			t.Fatal("the cold run built no accelerators: fixture proves nothing")
		}
		misses := make([]int64, len(cl.nodes))
		for i, n := range cl.nodes {
			misses[i] = n.Engine().Cache().Stats().Misses
		}
		for _, st := range checkLoanJoins(t, e, cl.coord, a, b, da, db, q) {
			for _, ss := range st.Shards {
				if ss.Status == "skipped" {
					continue
				}
				if ss.Status != "ok" || ss.Stats == nil {
					t.Fatalf("group %d: status %q (%s)", ss.Shard, ss.Status, ss.Err)
				}
				if ss.Stats.Decodes != 0 || ss.Stats.AccelBuilds != 0 {
					t.Errorf("warm group %d decoded %d and built %d accelerators, want 0 and 0", ss.Shard, ss.Stats.Decodes, ss.Stats.AccelBuilds)
				}
			}
		}
		for i, n := range cl.nodes {
			if got := n.Engine().Cache().Stats().Misses; got != misses[i] {
				t.Errorf("worker %d: %d cache misses on the warm run", i, got-misses[i])
			}
		}
		allRefs := 0
		for i, tap := range cl.taps {
			refs, shipped := tap.take()
			allRefs += refs
			if len(shipped) != 0 {
				t.Errorf("worker %d was shipped loan blobs %v it already held", i, shipped)
			}
		}
		if allRefs == 0 {
			t.Fatal("no loan refs crossed the wire: fixture proves nothing")
		}
	})
}

// postRefs sends worker i of cl a raw intersect request over nucleiA ×
// nucleiB naming the given loan refs ({id, crc} pairs) and returns the IDs
// the worker reports missing.
func postRefs(t *testing.T, cl *httpCluster, i int, refs [][2]int64) []int64 {
	t.Helper()
	type ref struct {
		ID  int64  `json:"id"`
		CRC uint32 `json:"crc"`
	}
	body := struct {
		Req   *shard.Request `json:"req"`
		Loans []ref          `json:"loans"`
	}{Req: &shard.Request{Kind: shard.KindIntersect, Target: "nucleiA", Source: "nucleiB", Group: i}}
	for _, r := range refs {
		body.Loans = append(body.Loans, ref{r[0], uint32(r[1])})
	}
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post("http://"+cl.addrs[i]+"/shard/query", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	defer http.DefaultClient.CloseIdleConnections()
	out, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("worker %d: status %d: %s (%v)", i, resp.StatusCode, out, err)
	}
	var wresp struct {
		Missing []int64 `json:"missing"`
	}
	if err := json.Unmarshal(out, &wresp); err != nil {
		t.Fatal(err)
	}
	return wresp.Missing
}

// TestHTTPLoansMissingAndCRC drives the missing path over HTTP with every
// group on one worker (3 shards, Replicas 1), so every loan starts out
// missing: each blob a worker lacks is shipped to it once, then never
// again; a fault on the missing answer is a transport error like any other;
// and after the source is re-added under the same name and IDs with other
// geometry, answers follow the new version and no worker resolves a ref
// carrying an old blob's CRC.
func TestHTTPLoansMissingAndCRC(t *testing.T) {
	leakcheck.Check(t)
	defer faultinject.Reset()
	e := core.NewEngine(testEngineOptions())
	defer e.Close()
	a, b := buildPair(t, e)
	const shards = 3
	cl := startHTTPCluster(t, shard.Options{Shards: shards, Retries: 1, RetryBackoff: time.Millisecond}, a, b)
	ctx := context.Background()

	join := func(src *core.Dataset) []core.Pair {
		t.Helper()
		want, _, err := e.IntersectJoin(ctx, a, src, core.QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := cl.coord.IntersectJoin(ctx, "nucleiA", "nucleiB", core.QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !sameSlice(got, want) {
			t.Fatalf("sharded answer differs from the unsharded engine's:\n got %v\nwant %v", got, want)
		}
		return want
	}
	home := homeShards(b, shards)
	// shippedOnce checks that each worker was shipped every blob it got
	// exactly once, none of its own home group, and returns a worker that
	// was shipped some (-1 if none was).
	shippedOnce := func(step string) int {
		t.Helper()
		busy := -1
		for i, tap := range cl.taps {
			_, shipped := tap.take()
			for id, n := range shipped {
				if n != 1 || home[id] == i {
					t.Errorf("%s: worker %d was shipped blob %d (home %d) %d times, want once and never a home blob", step, i, id, home[id], n)
				}
			}
			if len(shipped) > 0 {
				busy = i
			}
		}
		return busy
	}

	old := join(b)
	w := shippedOnce("cold join")
	if w < 0 {
		t.Fatal("no worker was shipped a blob: fixture proves nothing")
	}
	join(b)
	for i, tap := range cl.taps {
		if _, shipped := tap.take(); len(shipped) != 0 {
			t.Errorf("repeated join: worker %d was shipped %v again", i, shipped)
		}
	}

	// Re-installing the source drops what was lent, so worker w's next leg
	// starts with a missing answer; corrupting it on the wire is a
	// transport error, retried, and the retry ships each blob once.
	if err := cl.coord.AddDataset(b); err != nil {
		t.Fatal(err)
	}
	retries := cl.coord.Metrics().Retries
	faultinject.Arm(fmt.Sprintf("%s.%d", faultinject.PointShardNetRecv, w), faultinject.Fault{Corrupt: true, Times: 1})
	join(b)
	faultinject.Reset()
	if cl.coord.Metrics().Retries <= retries {
		t.Fatal("the corrupted missing answer was not retried")
	}
	shippedOnce("join after a corrupted missing answer")

	// A new version: same name, same IDs, other geometry.
	gen := datagen.NucleiOptions{Count: 12, SubdivisionLevel: 1, Seed: 23, Offset: geom.V(20, 5, 0)}
	b2, err := e.BuildDataset("nucleiB", datagen.Nuclei(gen), fastDatasetOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.coord.AddDataset(b2); err != nil {
		t.Fatal(err)
	}
	if sameSlice(join(b2), old) {
		t.Fatal("the new version joins like the old: fixture proves nothing")
	}
	home2 := homeShards(b2, shards)
	for i := range cl.nodes {
		var stale, fresh [][2]int64
		var wantMissing []int64
		for id := int64(0); id < int64(b.Len()); id++ {
			was, is := b.Tileset.Object(id).Comp.CRC(), b2.Tileset.Object(id).Comp.CRC()
			if was != is {
				stale = append(stale, [2]int64{id, int64(was)})
				wantMissing = append(wantMissing, id)
			}
			if home2[id] == i {
				fresh = append(fresh, [2]int64{id, int64(is)})
			}
		}
		if got := postRefs(t, cl, i, stale); !slices.Equal(got, wantMissing) {
			t.Errorf("worker %d: refs with old CRCs reported missing %v, want %v", i, got, wantMissing)
		}
		if got := postRefs(t, cl, i, fresh); len(got) != 0 {
			t.Errorf("worker %d: refs to its own home blobs reported missing %v", i, got)
		}
	}
}

// TestReAddDatasetReplacesGroups re-adds a source with fewer cuboids, so
// some home groups that held objects are now empty: every worker then holds
// exactly the new placement — the emptied groups are
// deleted, not left behind — and joins match the unsharded engine.
func TestReAddDatasetReplacesGroups(t *testing.T) {
	leakcheck.Check(t)
	e := core.NewEngine(testEngineOptions())
	defer e.Close()
	a, b := buildPair(t, e)
	coarse := fastDatasetOptions()
	coarse.Cuboids = 1
	gen := datagen.NucleiOptions{Count: 12, SubdivisionLevel: 1, Seed: 22, Offset: geom.V(2.5, 1.5, 1)}
	b1, err := e.BuildDataset("nucleiB", datagen.Nuclei(gen), coarse)
	if err != nil {
		t.Fatal(err)
	}
	const shards, replicas = 4, 2
	before, after := homeShards(b, shards), homeShards(b1, shards)
	emptied := 0
	for g := 0; g < shards; g++ {
		inBefore := slices.ContainsFunc(b.Tileset.Objects, func(o *storage.Object) bool { return before[o.ID] == g })
		inAfter := slices.ContainsFunc(b1.Tileset.Objects, func(o *storage.Object) bool { return after[o.ID] == g })
		if inBefore && !inAfter {
			emptied++
		}
	}
	if emptied == 0 {
		t.Fatal("no home group emptied: fixture proves nothing")
	}
	ctx := context.Background()
	want, _, err := e.IntersectJoin(ctx, a, b1, core.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantRev, _, err := e.IntersectJoin(ctx, b1, a, core.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Over the loopback HTTP fleet, the transport every coordinator uses.
	t.Run("http", func(t *testing.T) {
		cl := startHTTPCluster(t, shard.Options{Shards: shards, Replicas: replicas}, a, b)
		if err := cl.coord.AddDataset(b1); err != nil {
			t.Fatal(err)
		}
		for s, n := range cl.nodes {
			wantHeld := make(map[int][]int64)
			for id := int64(0); id < int64(b1.Len()); id++ {
				for k := 0; k < replicas; k++ {
					if g := after[id]; (g+k)%shards == s {
						wantHeld[g] = append(wantHeld[g], id)
					}
				}
			}
			if got := n.Held("nucleiB"); !reflect.DeepEqual(got, wantHeld) {
				t.Errorf("node %d holds %v, want %v", s, got, wantHeld)
			}
		}
		got, _, err := cl.coord.IntersectJoin(ctx, "nucleiA", "nucleiB", core.QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		gotRev, _, err := cl.coord.IntersectJoin(ctx, "nucleiB", "nucleiA", core.QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !sameSlice(got, want) || !sameSlice(gotRev, wantRev) {
			t.Errorf("joins over the re-added source differ from the unsharded engine's:\n got %v / %v\nwant %v / %v", got, gotRev, want, wantRev)
		}
	})
}

// TestHTTPLoansConcurrentColdJoins races cold joins on one fleet: legs of
// different queries reach the same worker together, each lending it blobs
// and resolving refs, and every answer is still the unsharded engine's.
// Run under -race (make chaos-net).
func TestHTTPLoansConcurrentColdJoins(t *testing.T) {
	leakcheck.Check(t)
	e := core.NewEngine(testEngineOptions())
	defer e.Close()
	a, b := buildPair(t, e)
	want, _, err := e.IntersectJoin(context.Background(), a, b, core.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cl := startHTTPCluster(t, shard.Options{Shards: 3}, a, b)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				got, _, err := cl.coord.IntersectJoin(context.Background(), "nucleiA", "nucleiB", core.QueryOptions{})
				if err != nil || !sameSlice(got, want) {
					t.Errorf("concurrent join: %v, answer equal %v", err, sameSlice(got, want))
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestLoanLegsKeepCalibrationBounded: every loan leg assembles a fresh
// "<source>@loan" dataset, and the engine's LOD calibrator is keyed by
// dataset name, so 50 loan legs over one source reuse the same calibrator
// cells instead of adding a set per leg.
func TestLoanLegsKeepCalibrationBounded(t *testing.T) {
	e := core.NewEngine(testEngineOptions())
	defer e.Close()
	da, db := buildDisjointPair(t, e)
	node := startHTTPCluster(t, shard.Options{Shards: 2, Replicas: 1}, da, db).nodes[0]
	var group int
	for g := range node.Held(da.Name) {
		group = g
	}
	home := map[int64]bool{}
	for _, id := range node.Held(db.Name)[group] {
		home[id] = true
	}
	var away []*storage.Object
	for _, o := range db.Tileset.Objects {
		if o != nil && !home[o.ID] {
			away = append(away, o)
		}
	}
	if len(away) < 2 {
		t.Fatalf("group %d holds %d of %d sources: no loans to make", group, len(home), db.Len())
	}
	leg := func(i int) {
		// Each leg lends every away source but one, rotating.
		loans := slices.Delete(slices.Clone(away), i%len(away), i%len(away)+1)
		req := &shard.Request{Kind: shard.KindWithin, Target: da.Name, Source: db.Name, Group: group, Dist: 8, Loans: loans,
			Opts: core.QueryOptions{Paradigm: core.FPR}}
		if _, err := node.Handle(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	cal := node.Engine().SchedCalibration
	for i := 0; i < len(away); i++ {
		leg(i) // one full rotation reaches every ladder the legs will use
	}
	before := cal()
	loanCells := 0
	for _, ce := range before {
		if ce.Source == db.Name+"@loan" {
			loanCells++
		}
	}
	if loanCells == 0 {
		t.Fatalf("no calibration cell for the loan dataset: %+v", before)
	}
	for i := 0; i < 50; i++ {
		leg(i)
	}
	if after := cal(); len(after) != len(before) {
		t.Errorf("50 loan legs took the calibrator from %d to %d cells:\n before %+v\n after %+v", len(before), len(after), before, after)
	}
}

// TestCorruptLoanTripsOnce: a worker assembles a fresh "<source>@loan"
// dataset for every leg, but the quarantine breaker is keyed by blob, so
// 20 Degrade legs lending one corrupt blob track one key and trip it once;
// legs after the trip skip the blob without decoding it. Its failures are
// reported under the source the client named, not the loan dataset.
func TestCorruptLoanTripsOnce(t *testing.T) {
	e := core.NewEngine(testEngineOptions())
	defer e.Close()
	da, db := buildPair(t, e)
	node := startHTTPCluster(t, shard.Options{Shards: 2, Replicas: 1}, da, db).nodes[0]
	var group int
	for g := range node.Held(da.Name) {
		group = g
	}
	targets, home := map[int64]bool{}, map[int64]bool{}
	for _, id := range node.Held(da.Name)[group] {
		targets[id] = true
	}
	for _, id := range node.Held(db.Name)[group] {
		home[id] = true
	}
	// An away source that intersects one of the group's targets: only
	// geometry proves an intersection, so the legs must decode it.
	clean, _, err := e.IntersectJoin(context.Background(), da, db, core.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(clean, func(p core.Pair) bool { return targets[p.Target] && !home[p.Source] })
	if i < 0 {
		t.Fatalf("no pair of group %d's targets meets an away source: %v", group, clean)
	}
	src := db.Tileset.Object(clean[i].Source)

	// One corrupt copy, parsed once: the first one-byte flip that still
	// parses but fails to decode its base mesh, so every LOD fails.
	blob := src.Comp.Bytes()
	var bad *storage.Object
	for off := range blob {
		flipped := slices.Clone(blob)
		flipped[off] ^= 0xFF
		if c, err := ppvp.FromBytes(flipped); err != nil {
			continue
		} else if _, err := c.Decode(0); err == nil {
			continue
		}
		c, _ := ppvp.FromBytes(flipped)
		bad = &storage.Object{ID: src.ID, Cuboid: src.Cuboid, Comp: c}
		break
	}
	if bad == nil {
		t.Fatal("no one-byte flip of the blob parses and fails to decode")
	}

	quar := node.Engine().Quarantine()
	tripped := -1
	for leg := 0; leg < 20; leg++ {
		failures := quar.Stats().Failures
		req := &shard.Request{Kind: shard.KindIntersect, Target: da.Name, Source: db.Name, Group: group,
			Loans: []*storage.Object{bad}, Opts: core.QueryOptions{OnError: core.Degrade}}
		resp, err := node.Handle(context.Background(), req)
		if err != nil {
			t.Fatalf("leg %d: %v", leg, err)
		}
		if len(resp.Stats.Degraded) == 0 {
			t.Fatalf("leg %d: corrupt loan %d not reported", leg, bad.ID)
		}
		for _, d := range resp.Stats.Degraded {
			if d.Dataset != req.Source || d.Object != bad.ID {
				t.Fatalf("leg %d: degraded entry %+v, want object %d of %q", leg, d, bad.ID, req.Source)
			}
		}
		if tripped >= 0 {
			if resp.Stats.QuarantineSkips < 1 || quar.Stats().Failures != failures {
				t.Fatalf("leg %d (tripped at leg %d): %d quarantine skips, breaker failures %d → %d; the blob was decoded again",
					leg, tripped, resp.Stats.QuarantineSkips, failures, quar.Stats().Failures)
			}
		} else if quar.Stats().Trips > 0 {
			tripped = leg
		}
	}
	if st := quar.Stats(); st.Trips != 1 || st.Tracked != 1 {
		t.Fatalf("breaker after 20 legs: %+v, want 1 trip and 1 tracked key", st)
	}
}

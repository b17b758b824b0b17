package shard

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/index/rtree"
	"repro/internal/quarantine"
	"repro/internal/storage"
)

// ErrUnknownDataset is returned for a query naming a dataset the
// coordinator has never been given.
var ErrUnknownDataset = errors.New("shard: unknown dataset")

// ErrShardFailed is the base error of a fail-fast query aborted by a shard
// failure; HTTP frontends map it to 502 (the backend, not the request, is
// at fault).
var ErrShardFailed = errors.New("shard: shard failed")

// ErrAllShardsFailed is returned when no shard produced an answer — with
// every relevant shard dead there is nothing sound to degrade to.
var ErrAllShardsFailed = errors.New("shard: all shards failed")

// ErrAttemptTimeout marks a per-attempt deadline expiry (Options.
// AttemptTimeout) as opposed to the parent query deadline: the shard was
// merely slow, so the attempt is retryable and the group may fail over to
// a replica. A bare context.DeadlineExceeded — the query itself expiring —
// is deliberately NOT retryable; see retryable.
var ErrAttemptTimeout = errors.New("shard: attempt timed out")

// Options tunes the coordinator.
type Options struct {
	// Shards is the number of shards (default 1).
	Shards int
	// Replicas is how many shards store each home group: group g lives on
	// shards (g+k) mod Shards for k in [0, Replicas). Default 1 (no
	// replication); clamped to Shards. With R > 1 the coordinator fails a
	// group over to the next replica on transport errors, attempt
	// timeouts, and open breakers, and only degrades when every replica is
	// down — surviving-replica answers are byte-identical to the clean
	// run.
	Replicas int
	// AttemptTimeout bounds each transport attempt, always as a child of
	// the request context so a query deadline caps it (default 0 = only
	// the request deadline applies).
	AttemptTimeout time.Duration
	// Retries is how many extra attempts a transport-class failure earns
	// (default 2; negative disables retries). Application errors from the
	// engine never retry.
	Retries int
	// RetryBackoff is the sleep before the first retry, doubling each
	// attempt with ±50% jitter (default 5ms; negative disables).
	RetryBackoff time.Duration
	// HedgeAfter, when positive, launches one hedge attempt if the primary
	// has not answered after this long; the first success wins (0 = off).
	HedgeAfter time.Duration
	// BreakerThreshold and BreakerCooldown configure the per-shard health
	// breaker (defaults per package quarantine: 3 failures, 30s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Seed seeds the retry-jitter RNG (default 1, so runs are
	// reproducible; chaos campaigns pass their campaign seed).
	Seed int64
}

func (o *Options) setDefaults() {
	if o.Shards <= 0 {
		o.Shards = 1
	}
	if o.Replicas <= 0 {
		o.Replicas = 1
	}
	if o.Replicas > o.Shards {
		o.Replicas = o.Shards
	}
	if o.Retries == 0 {
		o.Retries = 2
	} else if o.Retries < 0 {
		o.Retries = 0
	}
	if o.RetryBackoff == 0 {
		o.RetryBackoff = 5 * time.Millisecond
	} else if o.RetryBackoff < 0 {
		o.RetryBackoff = 0
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// dsEntry is the coordinator's record of one dataset: the full copy (for
// MBB summaries, loans, and degradation accounting) plus the placement.
type dsEntry struct {
	full *core.Dataset
	// homeIDs[g] lists the object IDs of home group g, sorted. Group g's
	// primary is shard g; its replicas are shards (g+k) mod Shards.
	homeIDs [][]int64
	// groupOf[id] is the home group of object id (-1 for nil holes).
	groupOf []int32
}

// Coordinator fans queries out over shards and merges the answers. It is
// safe for concurrent use.
type Coordinator struct {
	opts    Options
	tr      Transport
	breaker *quarantine.Breaker[int]

	mu       sync.RWMutex
	datasets map[string]*dsEntry

	rngMu sync.Mutex
	rng   *rand.Rand

	queries         atomic.Int64
	shardCalls      atomic.Int64
	retriesN        atomic.Int64
	hedges          atomic.Int64
	hedgeWins       atomic.Int64
	shardErrors     atomic.Int64
	openSkips       atomic.Int64
	degradedQueries atomic.Int64
	failovers       atomic.Int64
	failoverWins    atomic.Int64
	probes          atomic.Int64
	probeRecoveries atomic.Int64
	probeFailures   atomic.Int64

	// proberMu guards the prober lifecycle (StartProber/Close may race).
	proberMu   sync.Mutex
	proberStop chan struct{}
	proberDone chan struct{}
}

// NewWithTransport builds a coordinator over a transport — an HTTPTransport
// over worker processes, or a test double. The transport must implement
// DatasetInstaller for AddDataset to work.
func NewWithTransport(tr Transport, opts Options) *Coordinator {
	opts.setDefaults()
	return &Coordinator{
		opts: opts,
		tr:   tr,
		breaker: quarantine.NewBreaker[int](quarantine.Options{
			Threshold: opts.BreakerThreshold,
			Cooldown:  opts.BreakerCooldown,
		}),
		datasets: make(map[string]*dsEntry),
		rng:      rand.New(rand.NewSource(opts.Seed)),
	}
}

// Close stops the health prober, if running.
func (c *Coordinator) Close() { c.StopProber() }

// Shards returns the shard count.
func (c *Coordinator) Shards() int { return c.opts.Shards }

// Replicas returns the replication factor.
func (c *Coordinator) Replicas() int { return c.opts.Replicas }

// Breaker exposes the per-shard health breaker.
func (c *Coordinator) Breaker() *quarantine.Breaker[int] { return c.breaker }

// DatasetInstaller is the transport capability AddDataset requires: it
// ships one home group's objects to one shard, replacing the group there
// (an empty objs removes it). The HTTP transport PUTs the compressed blobs
// to the worker.
type DatasetInstaller interface {
	InstallDataset(ctx context.Context, shard int, name string, group int, grid storage.Grid, objs []*storage.Object) error
}

// AddDataset places a fully built dataset across the shards: each object's
// home group is its cuboid index mod Shards, so spatial neighbors land
// together and per-group tilesets keep their cache locality; group g is
// installed on shards (g+k) mod Shards for k < Replicas. A group with no
// objects is installed empty, which deletes whatever an earlier version of
// the name left there. The coordinator retains the full dataset for loan
// computation; re-adding a name replaces it.
func (c *Coordinator) AddDataset(d *core.Dataset) error {
	inst, ok := c.tr.(DatasetInstaller)
	if !ok {
		return errors.New("shard: AddDataset requires a transport that installs datasets")
	}
	n := c.opts.Shards
	full := d.Tileset
	entry := &dsEntry{
		full:    d,
		homeIDs: make([][]int64, n),
		groupOf: make([]int32, len(full.Objects)),
	}
	parts := make([][]*storage.Object, n)
	for id, o := range full.Objects {
		if o == nil {
			entry.groupOf[id] = -1
			continue
		}
		g := o.Cuboid % n
		entry.groupOf[id] = int32(g)
		entry.homeIDs[g] = append(entry.homeIDs[g], o.ID)
		parts[g] = append(parts[g], o)
	}
	ctx := context.Background()
	for g := 0; g < n; g++ {
		for k := 0; k < c.opts.Replicas; k++ {
			s := (g + k) % n
			if err := inst.InstallDataset(ctx, s, d.Name, g, full.Grid, parts[g]); err != nil {
				return fmt.Errorf("shard: installing %q group %d on shard %d: %w", d.Name, g, s, err)
			}
		}
	}
	c.mu.Lock()
	c.datasets[d.Name] = entry
	c.mu.Unlock()
	return nil
}

func (c *Coordinator) dataset(name string) (*dsEntry, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, ok := c.datasets[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownDataset, name)
	}
	return e, nil
}

// IntersectJoin is the sharded core.Engine.IntersectJoin.
func (c *Coordinator) IntersectJoin(ctx context.Context, target, source string, q core.QueryOptions) ([]core.Pair, *core.Stats, error) {
	resps, st, err := c.joinQuery(ctx, KindIntersect, target, source, 0, q)
	return gather(resps, func(r *Response) []core.Pair { return r.Pairs }, core.ComparePairs), st, err
}

// WithinJoin is the sharded core.Engine.WithinJoin.
func (c *Coordinator) WithinJoin(ctx context.Context, target, source string, dist float64, q core.QueryOptions) ([]core.Pair, *core.Stats, error) {
	resps, st, err := c.joinQuery(ctx, KindWithin, target, source, dist, q)
	return gather(resps, func(r *Response) []core.Pair { return r.Pairs }, core.ComparePairs), st, err
}

// KNNJoin is the sharded core.Engine.KNNJoin. Targets are disjoint across
// groups, so the gather needs no per-target merge, only the canonical order.
func (c *Coordinator) KNNJoin(ctx context.Context, target, source string, q core.QueryOptions) ([]core.Neighbor, *core.Stats, error) {
	if q.K <= 0 {
		q.K = 1
	}
	resps, st, err := c.joinQuery(ctx, KindKNN, target, source, 0, q)
	return gather(resps, func(r *Response) []core.Neighbor { return r.Neighbors }, core.CompareNeighbors), st, err
}

// RangeQuery is the sharded core.Engine.RangeQuery.
func (c *Coordinator) RangeQuery(ctx context.Context, name string, box geom.Box3, q core.QueryOptions) ([]int64, *core.Stats, error) {
	return c.idQuery(ctx, &Request{Kind: KindRange, Target: name, Box: box, Opts: q}, box)
}

// ContainingObjects is the sharded core.Engine.ContainingObjects.
func (c *Coordinator) ContainingObjects(ctx context.Context, name string, p geom.Vec3, q core.QueryOptions) ([]int64, *core.Stats, error) {
	return c.idQuery(ctx, &Request{Kind: KindContains, Target: name, Point: p, Opts: q}, geom.BoxOf(p))
}

// idQuery routes a point or range query by the coordinator's R-tree: only
// the groups owning a candidate — an object whose MBB meets the query box,
// the same whole-object filter the worker runs first — get a leg, so the
// answer and every merged counter match a leg to every group. A group with
// no candidate is "skipped"; a failed group leaves only its candidates
// unsettled.
func (c *Coordinator) idQuery(ctx context.Context, proto *Request, box geom.Box3) ([]int64, *core.Stats, error) {
	tgt, err := c.dataset(proto.Target)
	if err != nil {
		return nil, nil, err
	}
	cands := make([][]int64, c.opts.Shards)
	tgt.full.Tree().SearchIntersect(box, func(ent rtree.Entry) bool {
		g := tgt.groupOf[ent.ID]
		cands[g] = append(cands[g], ent.ID)
		return true
	})
	reqs := make([]*Request, c.opts.Shards)
	for g := range reqs {
		if len(cands[g]) == 0 {
			continue
		}
		r := *proto
		r.Group = g
		reqs[g] = &r
	}
	resps, st, err := c.scatter(ctx, proto.Target, proto.Kind, proto.Opts, reqs, cands)
	return gather(resps, func(r *Response) []int64 { return r.IDs }, cmp.Compare[int64]), st, err
}

// joinQuery scatters a join's per-group requests and returns the
// responses, nil for a skipped group.
func (c *Coordinator) joinQuery(ctx context.Context, kind Kind, target, source string, dist float64, q core.QueryOptions) ([]*Response, *core.Stats, error) {
	tgt, reqs, err := c.prepareJoin(kind, target, source, dist, q)
	if err != nil {
		return nil, nil, err
	}
	return c.scatter(ctx, target, kind, q, reqs, tgt.homeIDs)
}

// gather concatenates one field of the responses and sorts it by order:
// each group answers for its own targets, so nothing needs merging. It
// returns nil when scatter failed (resps is nil then).
func gather[T any](resps []*Response, field func(*Response) []T, order func(a, b T) int) []T {
	var out []T
	for _, r := range resps {
		if r != nil {
			out = append(out, field(r)...)
		}
	}
	slices.SortFunc(out, order)
	return out
}

// prepareJoin resolves the datasets and builds the per-shard requests,
// loans included. Shards with no home target objects get a nil request
// (recorded as "skipped").
func (c *Coordinator) prepareJoin(kind Kind, target, source string, dist float64, q core.QueryOptions) (*dsEntry, []*Request, error) {
	tgt, err := c.dataset(target)
	if err != nil {
		return nil, nil, err
	}
	src := tgt
	if source != target {
		if src, err = c.dataset(source); err != nil {
			return nil, nil, err
		}
	}
	reqs := make([]*Request, c.opts.Shards)
	for s := range reqs {
		if len(tgt.homeIDs[s]) == 0 {
			continue
		}
		reqs[s] = &Request{
			Kind: kind, Target: target, Source: source, Group: s, Dist: dist, Opts: q,
			Loans: c.loansFor(kind, tgt, src, s, dist, q.K),
		}
	}
	return tgt, reqs, nil
}

// loansFor computes the cross-group candidate set for home group g: every
// source object not homed in g whose MBB summary could pair with one of
// g's home targets under the query predicate. The computation runs
// entirely on the coordinator's R-tree — no shard is consulted — and is a
// superset of the true cross-shard result pairs, so shipping exactly these
// objects preserves completeness:
//
//   - intersect: sources whose MBB intersects a home target's MBB (the
//     same filter the single-engine join starts from);
//   - within: sources whose MBB is within dist of a home target's MBB
//     (MINDIST pruning, matching rtree.SearchWithin);
//   - knn: each home target's rtree.NNCandidates set. Every true top-k
//     source of a target appears in that set: its MINDIST lower-bounds its
//     true distance, which is at most the k-th smallest candidate MAXDIST
//     — the traversal's retention threshold.
//
// Loans depend only on the group, not on which replica serves it, so a
// failed-over request reuses the same loan set and produces the same
// answer.
func (c *Coordinator) loansFor(kind Kind, tgt, src *dsEntry, g int, dist float64, k int) []*storage.Object {
	if kind == KindKNN && k <= 0 {
		k = 1
	}
	selfJoin := tgt == src
	tree := src.full.Tree()
	seen := make(map[int64]struct{})
	var loans []*storage.Object
	collect := func(id int64) {
		if id < int64(len(src.groupOf)) && src.groupOf[id] == int32(g) {
			return // home in this group already
		}
		if _, dup := seen[id]; dup {
			return
		}
		seen[id] = struct{}{}
		loans = append(loans, src.full.Tileset.Object(id))
	}
	for _, tid := range tgt.homeIDs[g] {
		o := tgt.full.Tileset.Object(tid)
		switch kind {
		case KindIntersect:
			tree.SearchIntersect(o.MBB(), func(ent rtree.Entry) bool {
				collect(ent.ID)
				return true
			})
		case KindWithin:
			r := tree.SearchWithin(o.MBB(), dist)
			for _, ent := range r.Definite {
				collect(ent.ID)
			}
			for _, ent := range r.Candidates {
				collect(ent.ID)
			}
		case KindKNN:
			var skip func(rtree.Entry) bool
			if selfJoin {
				skip = func(ent rtree.Entry) bool { return ent.ID == o.ID }
			}
			for _, cand := range tree.NNCandidates(o.MBB(), k, skip) {
				collect(cand.ID)
			}
		}
	}
	return loans
}

// scatter fans the per-shard requests out, gathers the responses, and
// builds the merged Stats whose counters are exactly the sum of the
// per-shard Stats (Stats.Shards carries the per-shard breakdown). A shard
// that fails all attempts — or whose breaker is open — degrades the query
// under core.Degrade: unsettled[g], the target objects group g's request
// covered, are recorded as uncertain. Under core.FailFast (the default) the
// first shard failure aborts the query, as a single engine's first object
// failure would.
func (c *Coordinator) scatter(ctx context.Context, targetName string, kind Kind, q core.QueryOptions, reqs []*Request, unsettled [][]int64) ([]*Response, *core.Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	c.queries.Add(1)
	n := c.opts.Shards

	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	resps := make([]*Response, n)
	shardStats := make([]core.ShardStat, n)
	var wg sync.WaitGroup
	for s := 0; s < n; s++ {
		if reqs[s] == nil {
			shardStats[s] = core.ShardStat{Shard: s, Status: "skipped", Replica: -1}
			continue
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			resp, ss := c.callGroup(ctx, s, reqs[s])
			resps[s], shardStats[s] = resp, ss
			if ss.Status != "ok" && q.OnError != core.Degrade {
				cancel() // fail fast: abort the other shards promptly
			}
		}(s)
	}
	wg.Wait()

	merged := &core.Stats{}
	succeeded, failed := 0, 0
	var firstErr error
	for s := 0; s < n; s++ {
		ss := &shardStats[s]
		switch ss.Status {
		case "ok":
			succeeded++
		case "skipped":
		default:
			failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("%w: shard %d: %s", ErrShardFailed, s, ss.Err)
			}
			// Degraded accounting lives in a synthesized per-shard Stats so
			// the Σ-per-shard invariant covers the uncertainty lists too.
			ss.Stats = degradeStats(unsettled[s], targetName, kind, s, ss.Err)
		}
		merged.Merge(ss.Stats)
	}
	merged.Shards = shardStats
	merged.Elapsed = time.Since(start)

	if failed > 0 {
		// The request itself expired or was abandoned: report that, not a
		// shard failure — the shards only died because the query did.
		if perr := parent.Err(); perr != nil {
			return nil, merged, perr
		}
		if q.OnError != core.Degrade {
			return nil, merged, firstErr
		}
		if succeeded == 0 {
			return nil, merged, fmt.Errorf("%w: %v", ErrAllShardsFailed, firstErr)
		}
		c.degradedQueries.Add(1)
	}
	return resps, merged, nil
}

// degradeStats synthesizes the degradation accounting of a failed shard:
// the target objects its request covered (ids) are unsettled — every home
// target for a join, the routed candidates for a point or range query. IDs
// go to UncertainIDs at object granularity, sorted; join kinds additionally
// record the pair-granularity marker {target, -1} ("unknown candidate set
// of that target", the convention core's degrader uses when a target decode
// fails). One Degraded entry records the shard failure itself.
func degradeStats(ids []int64, targetName string, kind Kind, s int, errMsg string) *core.Stats {
	ids = slices.Clone(ids)
	slices.Sort(ids)
	st := &core.Stats{
		UncertainIDs: ids,
		Degraded: []core.ObjectError{{
			Dataset: targetName,
			Object:  -1,
			Err:     firstLine(fmt.Sprintf("shard %d: %s", s, errMsg)),
		}},
	}
	switch kind {
	case KindIntersect, KindWithin, KindKNN:
		st.Uncertain = make([]core.Pair, len(ids))
		for i, id := range ids {
			st.Uncertain[i] = core.Pair{Target: id, Source: -1}
		}
	}
	return st
}

// callGroup serves one home group's request, walking its replica chain —
// physical shards (g+k) mod Shards for k < Replicas — until a replica
// answers. Each replica gets the full breaker/retry/hedge treatment of the
// unreplicated tier; the chain advances past a replica whose breaker is
// open or whose attempts exhausted on a transport-class error or attempt
// timeout. Application errors and parent-context expiry stop the chain:
// a replica holding identical data would fail identically, and a dead
// query must not burn more attempts. ShardStat.Shard is the group index;
// Replica records which link answered.
func (c *Coordinator) callGroup(ctx context.Context, g int, req *Request) (resp *Response, ss core.ShardStat) {
	ss = core.ShardStat{Shard: g, Replica: -1}
	start := time.Now()
	defer func() { ss.Elapsed = time.Since(start) }()

	var lastErr error
	for k := 0; k < c.opts.Replicas; k++ {
		s := (g + k) % c.opts.Shards
		if !c.breaker.Allow(s) {
			c.openSkips.Add(1)
			continue
		}
		if k > 0 {
			c.failovers.Add(1)
		}
		r, err := c.callReplica(ctx, s, req, &ss)
		if err == nil {
			ss.Status = "ok"
			ss.Replica = k
			ss.Stats = r.Stats
			if k > 0 {
				c.failoverWins.Add(1)
			}
			return r, ss
		}
		lastErr = err
		if !retryable(ctx, err) {
			break
		}
	}
	if lastErr == nil {
		// Every replica's breaker refused the call without a single attempt.
		ss.Status = "open"
		ss.Err = "circuit open"
		return nil, ss
	}
	ss.Status = "error"
	ss.Err = firstLine(lastErr.Error())
	return nil, ss
}

// callReplica runs one physical shard's request through the retry loop and
// optional hedging, maintaining the shard's breaker account.
func (c *Coordinator) callReplica(ctx context.Context, s int, req *Request, ss *core.ShardStat) (*Response, error) {
	backoff := c.opts.RetryBackoff
	var lastErr error
	for attempt := 0; ; attempt++ {
		r, hedged, hedgeWon, n, err := c.attempt(ctx, s, req)
		c.shardCalls.Add(int64(n))
		ss.Attempts += n
		ss.Hedged = ss.Hedged || hedged
		if err == nil {
			if hedgeWon {
				ss.HedgeWon = true
				c.hedgeWins.Add(1)
			}
			c.breaker.Success(s)
			return r, nil
		}
		lastErr = err
		if attempt >= c.opts.Retries || !retryable(ctx, err) {
			break
		}
		c.retriesN.Add(1)
		if !sleepCtx(ctx, c.jitter(backoff)) {
			break
		}
		backoff *= 2
	}

	if ctx.Err() != nil {
		// The query itself is gone (deadline or fail-fast abort): don't
		// punish the shard — a canceled probe proves nothing about its
		// health.
		c.breaker.Release(s)
	} else {
		c.shardErrors.Add(1)
		c.breaker.Failure(s, firstLine(lastErr.Error()))
	}
	return nil, lastErr
}

// attempt runs one transport attempt, hedging it with a second concurrent
// attempt if the primary has not answered within HedgeAfter. The first
// success wins and the loser's context is canceled; attempts counts how
// many transports were launched (1 or 2).
func (c *Coordinator) attempt(ctx context.Context, s int, req *Request) (resp *Response, hedged, hedgeWon bool, attempts int, err error) {
	type result struct {
		resp  *Response
		err   error
		hedge bool
	}
	ch := make(chan result, 2)
	launch := func(hedge bool) context.CancelFunc {
		// Always derive a cancelable context, even without an attempt
		// timeout: the deferred cancels below are how the losing attempt of
		// a hedged pair gets torn down. With the parent ctx passed through
		// unwrapped, the loser's transport call would keep running until
		// the whole query finished.
		var actx context.Context
		var cancel context.CancelFunc
		if c.opts.AttemptTimeout > 0 {
			actx, cancel = context.WithTimeout(ctx, c.opts.AttemptTimeout)
		} else {
			actx, cancel = context.WithCancel(ctx)
		}
		go func() {
			r, e := c.tr.Send(actx, s, req)
			// A deadline expiry that came from the attempt context while the
			// parent is still alive is a per-attempt timeout: rebrand it so
			// retry/failover classification can tell it apart from the query
			// deadline expiring.
			if e != nil && ctx.Err() == nil && actx.Err() != nil && errors.Is(e, context.DeadlineExceeded) {
				e = fmt.Errorf("%w after %v: %v", ErrAttemptTimeout, c.opts.AttemptTimeout, e)
			}
			ch <- result{r, e, hedge}
		}()
		return cancel
	}
	cancelPrimary := launch(false)
	defer cancelPrimary()
	attempts, outstanding := 1, 1

	var hedgeC <-chan time.Time
	if c.opts.HedgeAfter > 0 {
		t := time.NewTimer(c.opts.HedgeAfter)
		defer t.Stop()
		hedgeC = t.C
	}

	var firstErr error
	for {
		select {
		case r := <-ch:
			outstanding--
			if r.err == nil {
				return r.resp, hedged, r.hedge, attempts, nil
			}
			if firstErr == nil {
				firstErr = r.err
			}
			if outstanding == 0 {
				return nil, hedged, false, attempts, firstErr
			}
		case <-hedgeC:
			hedgeC = nil
			hedged = true
			attempts++
			outstanding++
			c.hedges.Add(1)
			cancelHedge := launch(true)
			defer cancelHedge()
		case <-ctx.Done():
			return nil, hedged, false, attempts, ctx.Err()
		}
	}
}

// retryable classifies an attempt failure, both for another attempt on the
// same replica and for failing over to the next: transport-class errors and
// per-attempt timeouts are transient; application errors and request
// cancellation are not. An application error would reproduce identically on
// a replica holding the same data. A bare context.DeadlineExceeded is the
// query's own deadline expiring — retrying (or failing over) a dead query
// would only burn attempts against its corpse, so it deliberately does not
// qualify; only the ErrAttemptTimeout rebrand (attempt deadline fired while
// the parent is alive) does.
func retryable(ctx context.Context, err error) bool {
	if ctx.Err() != nil {
		return false
	}
	return errors.Is(err, ErrTransport) || errors.Is(err, ErrAttemptTimeout)
}

// jitter spreads a backoff uniformly over [d/2, 3d/2) so synchronized
// retries against a recovering shard don't stampede.
func (c *Coordinator) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	return d/2 + time.Duration(c.rng.Int63n(int64(d)))
}

// sleepCtx sleeps for d, returning false if ctx expires first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// ShardHealth is one shard's health snapshot for /statusz.
type ShardHealth struct {
	Shard int `json:"shard"`
	// State is the breaker state: "closed" (healthy), "open", or
	// "half-open".
	State    string `json:"state"`
	Failures int    `json:"failures,omitempty"`
	Reason   string `json:"reason,omitempty"`
	// Objects counts the home objects placed on the shard across datasets.
	Objects int `json:"objects"`
}

// Health returns the per-shard health snapshot, ordered by shard index.
func (c *Coordinator) Health() []ShardHealth {
	out := make([]ShardHealth, c.opts.Shards)
	for s := range out {
		out[s] = ShardHealth{Shard: s, State: quarantine.Closed.String()}
	}
	for _, e := range c.breaker.Entries() {
		if e.Key < 0 || e.Key >= len(out) {
			continue
		}
		out[e.Key].State = c.breaker.State(e.Key).String()
		out[e.Key].Failures = e.Failures
		out[e.Key].Reason = e.Reason
	}
	c.mu.RLock()
	for _, e := range c.datasets {
		for g, ids := range e.homeIDs {
			for k := 0; k < c.opts.Replicas; k++ {
				out[(g+k)%c.opts.Shards].Objects += len(ids)
			}
		}
	}
	c.mu.RUnlock()
	return out
}

// Degraded reports whether any shard's breaker is currently non-closed —
// the condition under which /readyz reports degraded readiness.
func (c *Coordinator) Degraded() bool { return c.breaker.Len() > 0 }

// Metrics is a snapshot of the coordinator's counters, the source of the
// threedpro_shard_* metric families.
type Metrics struct {
	// Queries counts coordinated queries; DegradedQueries the subset that
	// lost at least one shard and returned a degraded answer.
	Queries         int64 `json:"queries"`
	DegradedQueries int64 `json:"degraded_queries"`
	// ShardCalls counts transport attempts (retries and hedges included);
	// Retries and Hedges count the extra attempts by cause, HedgeWins the
	// hedges whose response was accepted.
	ShardCalls int64 `json:"shard_calls"`
	Retries    int64 `json:"retries"`
	Hedges     int64 `json:"hedges"`
	HedgeWins  int64 `json:"hedge_wins"`
	// ShardErrors counts shard calls that exhausted their attempts;
	// OpenSkips counts calls refused by an open breaker.
	ShardErrors int64 `json:"shard_errors"`
	OpenSkips   int64 `json:"open_skips"`
	// Failovers counts replica-chain advances past a failed or breaker-open
	// replica; FailoverWins the advances whose replica produced the answer.
	Failovers    int64 `json:"failovers"`
	FailoverWins int64 `json:"failover_wins"`
	// Probes counts active health probes issued by the background prober;
	// ProbeRecoveries the probes whose success released a shard's breaker;
	// ProbeFailures the probes that failed.
	Probes          int64 `json:"probes"`
	ProbeRecoveries int64 `json:"probe_recoveries"`
	ProbeFailures   int64 `json:"probe_failures"`
}

// Metrics returns the counter snapshot.
func (c *Coordinator) Metrics() Metrics {
	return Metrics{
		Queries:         c.queries.Load(),
		DegradedQueries: c.degradedQueries.Load(),
		ShardCalls:      c.shardCalls.Load(),
		Retries:         c.retriesN.Load(),
		Hedges:          c.hedges.Load(),
		HedgeWins:       c.hedgeWins.Load(),
		ShardErrors:     c.shardErrors.Load(),
		OpenSkips:       c.openSkips.Load(),
		Failovers:       c.failovers.Load(),
		FailoverWins:    c.failoverWins.Load(),
		Probes:          c.probes.Load(),
		ProbeRecoveries: c.probeRecoveries.Load(),
		ProbeFailures:   c.probeFailures.Load(),
	}
}

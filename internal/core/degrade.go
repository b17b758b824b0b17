package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/storage"
)

// ErrorPolicy selects how a query reacts to per-object failures (corrupt
// blobs, decode errors, evaluator panics).
type ErrorPolicy int

const (
	// FailFast aborts the whole query on the first object failure — today's
	// strict behavior, and the default.
	FailFast ErrorPolicy = iota
	// Degrade skips failing objects and keeps the query running: results
	// that the PPVP progressive-approximation properties prove independently
	// of the failed objects are returned as certain, pairs the failure left
	// unsettled are reported as uncertain, and every skipped object is
	// listed in Stats.Degraded. An error budget bounds how much damage a
	// query tolerates before giving up anyway.
	Degrade
)

func (p ErrorPolicy) String() string {
	if p == Degrade {
		return "degrade"
	}
	return "fail-fast"
}

// ObjectError records one object a Degrade-policy query skipped.
type ObjectError struct {
	Dataset string `json:"dataset"`
	Object  int64  `json:"object"`
	Err     string `json:"error"`
}

// ErrQuarantined marks decode refusals caused by the engine's quarantine
// breaker (the blob's circuit breaker is open) or by a hole that salvage
// loading left. Under Degrade these skips are recorded but do not
// consume the error budget — the condition is already known and bounded.
var ErrQuarantined = errors.New("quarantined")

// errBudgetExceeded aborts a Degrade-policy query once more distinct objects
// failed than the budget allows.
var errBudgetExceeded = errors.New("core: degraded-mode error budget exceeded")

// defaultErrorBudget is the distinct-failed-object budget when
// QueryOptions.ErrorBudget is zero.
const defaultErrorBudget = 64

// degrader collects per-object failures and unsettled pairs for one
// Degrade-policy query. Buffers are per worker slot (runPerTarget guarantees
// slot exclusivity), so the hot path records failures without locking; the
// distinct-object dedup set is the only shared state.
type degrader struct {
	budget int64 // distinct failed objects allowed; <0 = unlimited

	failed sync.Map // ObjectError{Dataset, Object} -> struct{} (dedup across workers)
	count  atomic.Int64

	errsBuf [][]ObjectError
	uncBuf  [][]Pair
	uncIDs  []int64 // single-dataset queries only (the probe ladder)
}

func newDegrader(workers, budget int) *degrader {
	if workers < 1 {
		workers = 1
	}
	b := int64(budget)
	if budget == 0 {
		b = defaultErrorBudget
	} else if budget < 0 {
		b = -1
	}
	return &degrader{
		budget:  b,
		errsBuf: make([][]ObjectError, workers),
		uncBuf:  make([][]Pair, workers),
	}
}

// fail records one failed object. The first failure of each distinct object
// is appended to the worker's degraded list; quarantine skips are recorded
// but don't consume the budget. A non-nil return aborts the query (budget
// exceeded).
func (d *degrader) fail(w int, ds *Dataset, id int64, err error) error {
	if _, seen := d.failed.LoadOrStore(ObjectError{Dataset: ds.Name, Object: id}, struct{}{}); seen {
		return nil
	}
	d.errsBuf[w] = append(d.errsBuf[w], ObjectError{Dataset: ds.Name, Object: id, Err: err.Error()})
	if errors.Is(err, ErrQuarantined) {
		return nil
	}
	if n := d.count.Add(1); d.budget >= 0 && n > d.budget {
		return fmt.Errorf("%w: %d objects failed (budget %d; last: object %d of %q: %v)",
			errBudgetExceeded, n, d.budget, id, ds.Name, err)
	}
	return nil
}

// uncertain marks one (target, source) pair as unsettled: the failure left
// the predicate neither proven nor disproven. Source -1 means the failure
// hid an unknown set of candidates of the target.
func (d *degrader) uncertain(w int, p Pair) {
	d.uncBuf[w] = append(d.uncBuf[w], p)
}

// uncertainID marks one object of a single-dataset query as unsettled: the
// probe ladder of the point and range queries, not under runPerTarget.
func (d *degrader) uncertainID(id int64) {
	d.uncIDs = append(d.uncIDs, id)
}

// fill merges the per-worker buffers into the query stats, deterministically
// ordered. Safe on a nil receiver (FailFast queries).
func (d *degrader) fill(st *Stats) {
	if d == nil {
		return
	}
	for _, b := range d.errsBuf {
		st.Degraded = append(st.Degraded, b...)
	}
	sort.Slice(st.Degraded, func(i, j int) bool {
		if st.Degraded[i].Dataset != st.Degraded[j].Dataset {
			return st.Degraded[i].Dataset < st.Degraded[j].Dataset
		}
		return st.Degraded[i].Object < st.Degraded[j].Object
	})
	for _, b := range d.uncBuf {
		st.Uncertain = append(st.Uncertain, b...)
	}
	slices.SortFunc(st.Uncertain, ComparePairs)
	st.UncertainIDs = append(st.UncertainIDs, d.uncIDs...)
	slices.Sort(st.UncertainIDs)
}

// backstop returns the runPerTarget error hook for this query: under
// Degrade, a panic or error that escaped a worker callback (a geometry
// evaluator blowing up on a decoded mesh) quarantines the target object and
// converts the abort into a per-object degradation. Nil under FailFast,
// preserving strict semantics.
func (d *degrader) backstop(e *Engine, ds *Dataset) func(w int, o *storage.Object, err error) error {
	if d == nil {
		return nil
	}
	return func(w int, o *storage.Object, err error) error {
		if isCtxErr(err) || errors.Is(err, errBudgetExceeded) {
			return err
		}
		e.quar.Failure(o.Comp.ID(), firstLine(err.Error()))
		if aerr := d.fail(w, ds, o.ID, err); aerr != nil {
			return aerr
		}
		// The callback died mid-target: which candidates were left is
		// unknown, so the whole target is marked unsettled.
		d.uncertain(w, Pair{Target: o.ID, Source: -1})
		return nil
	}
}

// degradeErr centralizes per-candidate decode-error handling: under
// FailFast (or on context expiry) the error aborts the query; under Degrade
// the object is recorded and the caller skips it. skip=true means "drop the
// object and continue", otherwise abort with the returned error.
func (c *evalCtx) degradeErr(w int, ds *Dataset, id int64, err error) (skip bool, abort error) {
	if c.deg == nil || isCtxErr(err) {
		return false, err
	}
	if aerr := c.deg.fail(w, ds, id, err); aerr != nil {
		return false, aerr
	}
	return true, nil
}

// isCtxErr reports whether err is a context cancellation or deadline —
// never attributable to an object, so it always aborts and never counts
// against quarantine or the error budget.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// firstLine truncates an error message to its first line (capped), keeping
// quarantine reasons and degradation reports readable when the failure was
// a panic with a full stack trace attached.
func firstLine(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			s = s[:i]
			break
		}
	}
	const maxReason = 200
	if len(s) > maxReason {
		s = s[:maxReason]
	}
	return s
}

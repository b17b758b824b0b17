// Package shard implements the sharded serving tier: a coordinator that
// space-partitions object placement across N engine shards, scatter-gathers
// per-shard query execution, and merges results and statistics so that the
// sum of per-shard counters equals the coordinator's totals.
//
// Placement is by space-partition cuboid: an object whose cuboid index is c
// belongs to home group c mod N, and group g is stored on shards g, g+1,
// …, (g+R−1) mod N for replication factor R (Options.Replicas; R = 1 is
// the unreplicated tier of PR 6). A join query touches pairs that straddle
// groups, so the coordinator computes, per group, the set of non-home
// source objects whose MBBs could pair with the group's home targets (the
// cross-group candidate set, derived purely from the R-tree MBB summaries
// it keeps for every dataset) and loans those objects to the serving
// replica for the duration of the query. Each replica then evaluates
// home-targets × (home-sources ∪ loans) and the coordinator concatenates:
// target sets are disjoint across groups and loan sets never contain the
// group's home objects, so no pair is produced twice and none is missed —
// on whichever replica the group is served.
//
// Robustness is the point of the tier: per-shard attempt deadlines derived
// from the request context, bounded retries with jittered exponential
// backoff for transport-class errors, optional hedged requests for
// stragglers, replica failover (a group whose primary is dead, timed out,
// or breaker-open is retried on the next replica — identical data, so the
// failed-over answer is byte-identical), and a per-shard circuit breaker
// (a quarantine.Breaker keyed by physical shard index). Only when every
// replica of a group is down does the query degrade under core.Degrade:
// the group's home target objects are reported in
// Stats.UncertainIDs/Uncertain and the query's certain answer — sound by
// the PPVP guarantees independently of the missing group — is returned.
// See DESIGN.md §10 and §13.
package shard

import (
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/storage"
)

// Kind names a query type carried by a Request.
type Kind string

const (
	KindIntersect Kind = "intersect"
	KindWithin    Kind = "within"
	KindKNN       Kind = "knn"
	KindRange     Kind = "range"
	KindContains  Kind = "contains"
)

// Request is one shard's share of a coordinated query. The coordinator
// resolves dataset names and computes the loan set; the shard node resolves
// the names against its local (home) datasets.
type Request struct {
	Kind   Kind   `json:"kind"`
	Target string `json:"target"`
	Source string `json:"source,omitempty"`

	// Group is the home group whose target objects this request evaluates.
	// A shard may hold replicas of several groups; the group selects which
	// one, so a failed-over request on a replica produces exactly the
	// primary's answer.
	Group int `json:"group"`

	// Dist is the within-distance threshold (KindWithin).
	Dist float64 `json:"dist,omitempty"`
	// Box is the range-query box (KindRange).
	Box geom.Box3 `json:"box,omitempty"`
	// Point is the containment probe (KindContains).
	Point geom.Vec3 `json:"point,omitempty"`

	Opts core.QueryOptions `json:"opts"`

	// Loans are the non-home source objects the coordinator determined this
	// shard may need: every source whose MBB summary pairs with one of the
	// shard's home targets under the query predicate. The transport names
	// each by (ID, blob CRC) and the worker resolves the names to objects it
	// holds, shipping a blob only when the worker lacks it.
	Loans []*storage.Object `json:"-"`
}

// Response is one shard's answer. Exactly one of Pairs/Neighbors/IDs is
// populated depending on the request kind; Stats always is, and crosses the
// HTTP hop beside the Response in its leg form (legStats).
type Response struct {
	Pairs     []core.Pair     `json:"pairs,omitempty"`
	Neighbors []core.Neighbor `json:"neighbors,omitempty"`
	IDs       []int64         `json:"ids,omitempty"`
	Stats     *core.Stats     `json:"-"`
}

// Package ppvp implements the paper's primary contribution: Progressive
// Protruding-Vertex Pruning (PPVP) mesh compression.
//
// PPVP compresses a polyhedron in rounds of decimation. Each round removes
// an independent set of vertices (no two removed vertices share an edge) and
// retriangulates the resulting holes. Unlike classic progressive compression
// (PPMC), PPVP removes only *protruding* vertices — vertices whose removal
// can only cut solid tetrahedra off the object, never fill pits — so every
// lower level-of-detail (LOD) polyhedron is a progressive approximation
// (spatial subset) of every higher LOD. That guarantee powers the
// Filter-Progressive-Refine query paradigm:
//
//   - if two objects intersect at a lower LOD they intersect at every
//     higher LOD;
//   - the distance between two objects at a lower LOD is an upper bound of
//     their distance at every higher LOD.
//
// The compressed format stores a quantized base mesh (LOD 0) plus, per
// decimation round, the information needed to re-insert the removed
// vertices. Decoding is progressive: reconstructing LOD k reads only the
// base section and the round sections up to k.
package ppvp

import (
	"errors"

	"repro/internal/geom"
)

// Policy selects which vertices the encoder may remove.
type Policy int

const (
	// PruneProtruding is the PPVP policy: only protruding vertices are
	// removed, guaranteeing progressive approximations at every LOD.
	PruneProtruding Policy = iota
	// PruneAny is the classic PPMC-style policy: any vertex with a valid
	// simple one-ring may be removed. LODs carry no subset guarantee.
	PruneAny
)

func (p Policy) String() string {
	switch p {
	case PruneProtruding:
		return "ppvp"
	case PruneAny:
		return "ppmc"
	default:
		return "unknown"
	}
}

// Options configures compression.
type Options struct {
	// Rounds is the total number of decimation rounds (default 10).
	Rounds int
	// RoundsPerLOD groups this many rounds into one LOD step (default 2,
	// matching the paper's choice so consecutive LODs share few faces and
	// the face count roughly halves per LOD, r = 2).
	RoundsPerLOD int
	// QuantBits is the number of bits per coordinate for quantization
	// (default 16). Vertices are snapped to the grid before decimation, so
	// decoding the highest LOD is bit-exact with the quantized input.
	QuantBits int
	// MinFaces stops decimation when the mesh would drop below this many
	// faces (default 8).
	MinFaces int
	// Policy selects protruding-only (PPVP) or any-vertex (PPMC) pruning.
	Policy Policy
}

// DefaultOptions returns the paper's configuration: 10 rounds, 2 rounds per
// LOD (6 LODs: 1 base + 5 refinement steps), 16-bit quantization.
func DefaultOptions() Options {
	return Options{Rounds: 10, RoundsPerLOD: 2, QuantBits: 16, MinFaces: 8, Policy: PruneProtruding}
}

func (o *Options) setDefaults() {
	if o.Rounds <= 0 {
		o.Rounds = 10
	}
	if o.RoundsPerLOD <= 0 {
		o.RoundsPerLOD = 2
	}
	if o.QuantBits <= 0 {
		o.QuantBits = 16
	}
	if o.QuantBits > 30 {
		o.QuantBits = 30
	}
	if o.MinFaces <= 4 {
		o.MinFaces = 4
	}
}

// Errors returned by this package.
var (
	ErrInvalidMesh   = errors.New("ppvp: input mesh is not a closed 2-manifold")
	ErrCorruptBlob   = errors.New("ppvp: corrupt compressed blob")
	ErrLODOutOfRange = errors.New("ppvp: requested LOD out of range")
)

// Stats reports what the encoder did; the paper profiles these numbers in
// §6.2 (protruding fraction) and Fig. 11 (faces per round).
type Stats struct {
	// VerticesExamined counts candidate vertices whose one-ring was simple
	// enough to consider removing.
	VerticesExamined int
	// VerticesProtruding counts examined candidates that passed the
	// protruding test.
	VerticesProtruding int
	// VerticesRemoved counts vertices actually removed over all rounds.
	VerticesRemoved int
	// FacesPerRound[i] is the face count after round i; FacesPerRound[0]
	// holds the original count (so len = rounds+1).
	FacesPerRound []int
	// RoundsRun is the number of rounds that removed at least one vertex.
	RoundsRun int
}

// op records one vertex removal. Decoding re-inserts the vertex by deleting
// the patch triangles and restoring the original fan around the vertex.
type op struct {
	pos  geom.Vec3 // removed vertex position (already quantized)
	ring []int32   // ordered CCW one-ring, as permanent vertex IDs
	// strat records which hole triangulation the encoder chose: 0 is the
	// ear-clipping result, k ≥ 1 is the fan rooted at ring vertex k-1. The
	// decoder re-derives the patch from the ring positions and this byte,
	// so the triangles themselves need not be stored.
	strat   uint16
	patch   [][3]uint16 // encode-time cache of the chosen triangulation
	origIdx int32       // encode-time original vertex index (not serialized)
}

// round groups the independent removals of one decimation round.
type round struct {
	ops []op
}

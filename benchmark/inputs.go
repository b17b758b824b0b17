package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"

	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/mesh"
)

// canonicalSeed generates the tissue every seed places. A whole-dataset join
// costs what its few dozen candidate pairs cost, so two tissues drawn from
// different datagen seeds differ by ±25 % in work (measured: 311–497 ms per
// rota pass over six seeds) and no bound could be checked across seeds. The
// benchmark seed therefore chooses where the one canonical tissue is placed
// and how its objects are numbered, which changes every coordinate, every
// object id and every answer but not the amount of work. The batches of
// ingest-reload, of which a run ingests hundreds, come from the seed directly.
const canonicalSeed = 42

// tissueSpec sizes one synthetic tissue.
type tissueSpec struct {
	nuclei       int // per nuclei dataset; each has 320 faces, the paper's regime
	vessels      int
	ringSegments int
	pathPoints   int
}

// tissue holds the raw meshes of the six datasets, keyed by dataset name:
// nucleiA/nucleiB overlap (intersection joins), nuclei1/nuclei2 are
// interior-disjoint (nuclei distance joins), nucleiT/vessels share one space
// with disjoint interiors (nuclei-vessel distance joins).
type tissue map[string][]*mesh.Mesh

var tissueNames = []string{"nucleiA", "nucleiB", "nuclei1", "nuclei2", "nucleiT", "vessels"}

// placedTissue is the canonical tissue as one seed places it.
type placedTissue struct {
	meshes tissue             // after placement: what a workload ingests
	canon  tissue             // before placement: what canonical op pools are drawn around
	place  placement          // canonical coordinates → placed coordinates
	ids    map[string][]int64 // ids[name][i] is the placed id of canonical object i
}

// newTissue generates the canonical tissue of the spec and places it by seed.
func newTissue(spec tissueSpec, seed int64) placedTissue {
	space := geom.Box3{Min: geom.V(0, 0, 0), Max: geom.V(100, 100, 100)}
	genA := datagen.NucleiOptions{Count: spec.nuclei, SubdivisionLevel: 2, Space: space, Seed: canonicalSeed}
	genB := genA
	genB.Seed = canonicalSeed + 1
	cell := space.Size().X / math.Ceil(math.Cbrt(float64(spec.nuclei)))
	genB.Offset = geom.V(0.22*cell, 0.16*cell, 0.12*cell)
	gen1 := genA
	gen1.Seed = canonicalSeed + 2
	genT := genA
	genT.Seed = canonicalSeed + 3

	t := tissue{"nucleiA": datagen.Nuclei(genA), "nucleiB": datagen.Nuclei(genB)}
	t["nuclei1"], t["nuclei2"] = datagen.NucleiPair(gen1)
	t["nucleiT"], t["vessels"] = datagen.Tissue(datagen.TissueOptions{
		Nuclei: genT,
		Vessels: datagen.VesselOptions{
			Count: spec.vessels, Space: space, Seed: canonicalSeed + 4,
			RingSegments: spec.ringSegments, PathPoints: spec.pathPoints,
		},
	})

	rng := rand.New(rand.NewSource(seed))
	pt := placedTissue{meshes: tissue{}, canon: t, place: newPlacement(rng), ids: map[string][]int64{}}
	for _, name := range tissueNames {
		pt.meshes[name], pt.ids[name] = pt.place.meshes(t[name], rng)
	}
	return pt
}

// placement is the seed-chosen translation of the canonical tissue. It
// keeps every box, distance, cuboid assignment and shard placement, and so
// the amount of work. Rotating or mirroring the space cube as well was tried
// and dropped: a mirror image reverses face winding, after which the PPVP
// encoder decimates in another order and stops after another number of
// rounds (other LOD counts, a rota pass 25 % slower), and a rotation
// renumbers the cuboids, which moves objects between shard groups.
type placement struct{ shift geom.Vec3 }

func newPlacement(rng *rand.Rand) placement {
	return placement{geom.V(rng.Float64()*50, rng.Float64()*50, rng.Float64()*50)}
}

func (p placement) point(v geom.Vec3) geom.Vec3 { return v.Add(p.shift) }

func (p placement) box(b geom.Box3) geom.Box3 {
	return geom.Box3{Min: p.point(b.Min), Max: p.point(b.Max)}
}

// meshes returns fresh placed copies of the meshes in a seed-chosen order,
// so object ids differ between seeds too; ids[i] is where ms[i] went.
func (p placement) meshes(ms []*mesh.Mesh, rng *rand.Rand) (out []*mesh.Mesh, ids []int64) {
	out, ids = make([]*mesh.Mesh, len(ms)), make([]int64, len(ms))
	for i, j := range rng.Perm(len(ms)) {
		src := ms[j]
		m := mesh.New(len(src.Vertices), len(src.Faces))
		for _, v := range src.Vertices {
			m.Vertices = append(m.Vertices, p.point(v))
		}
		m.Faces = append(m.Faces, src.Faces...)
		out[i], ids[j] = m, int64(i)
	}
	return out, ids
}

// rawBytes is the uncompressed size the paper uses for its compression
// ratios: 24 B per vertex and 12 B per face.
func rawBytes(ms []*mesh.Mesh) int64 {
	var n int64
	for _, m := range ms {
		n += int64(m.NumVertices())*24 + int64(m.NumFaces())*12
	}
	return n
}

// inputHasher folds generated inputs into one digest, so that a later
// change to datagen (or to the op generators here) shows as a changed
// workload in golden.json instead of as a speed-up.
type inputHasher struct{ h hash.Hash64 }

func newInputHasher() inputHasher { return inputHasher{fnv.New64a()} }

func (ih inputHasher) meshes(ms []*mesh.Mesh) {
	var buf [8]byte
	for _, m := range ms {
		for _, v := range m.Vertices {
			for _, c := range [3]float64{v.X, v.Y, v.Z} {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(c))
				ih.h.Write(buf[:])
			}
		}
		for _, f := range m.Faces {
			for _, idx := range f {
				binary.LittleEndian.PutUint32(buf[:4], uint32(idx))
				ih.h.Write(buf[:4])
			}
		}
	}
}

func (ih inputHasher) text(s string) { ih.h.Write([]byte(s)) }

func (ih inputHasher) sum() string { return fmt.Sprintf("%016x", ih.h.Sum64()) }

func (ih inputHasher) tissue(t tissue) {
	for _, name := range tissueNames {
		ih.text(name)
		ih.meshes(t[name])
	}
}

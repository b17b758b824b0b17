package ppvp

import (
	"fmt"
	"hash/crc32"
	"testing"

	"repro/internal/datagen"
	"repro/internal/mesh"
)

// pin is what TestBlobsPinned holds an encode to: the CRC-32 of the blob
// and the Stats counters that describe how the encoder got there.
type pin struct {
	crc                                      uint32
	examined, protruding, removed, roundsRun int
	facesPerRound                            string
}

// fixture is one named datagen mesh the pinned tests and the encoder
// benchmarks share.
type fixture struct {
	name string
	mesh *mesh.Mesh
}

func nucleusFixture(seed int64) *mesh.Mesh {
	return datagen.Nuclei(datagen.NucleiOptions{Count: 1, SubdivisionLevel: 2, Seed: seed})[0]
}

func vesselFixture(seed int64, ring, path int) *mesh.Mesh {
	return datagen.Vessels(datagen.VesselOptions{Count: 1, RingSegments: ring, PathPoints: path, Seed: seed})[0]
}

func pinnedFixtures() []fixture {
	var out []fixture
	for seed := int64(1); seed <= 8; seed++ {
		out = append(out, fixture{fmt.Sprintf("nucleus/%d", seed), nucleusFixture(seed)})
	}
	for seed := int64(1); seed <= 4; seed++ {
		out = append(out, fixture{fmt.Sprintf("vessel/%d", seed), vesselFixture(seed, 8, 8)})
	}
	return append(out, fixture{"vessel5k/1", vesselFixture(1, 20, 22)})
}

// TestBlobsPinned is the proof that an encoder change emits the same bytes:
// the constants below were generated on the commit before the encoder was
// optimised (PR 17, c0ea2b8) and are never regenerated alongside a change
// to internal/ppvp. "rounds10" is the benchmark's configuration
// (DefaultOptions with Rounds 10), "zero" the zero Options value, which
// setDefaults resolves to a lower face floor (MinFaces 4).
func TestBlobsPinned(t *testing.T) {
	for _, fx := range pinnedFixtures() {
		for _, policy := range []Policy{PruneProtruding, PruneAny} {
			rounds10 := DefaultOptions()
			rounds10.Rounds = 10
			rounds10.Policy = policy
			for _, cfg := range []struct {
				name string
				opts Options
			}{{"rounds10", rounds10}, {"zero", Options{Policy: policy}}} {
				key := fmt.Sprintf("%s/%s/%s", fx.name, policy, cfg.name)
				c, st, err := Compress(fx.mesh, cfg.opts)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				got := pin{
					crc:      crc32.ChecksumIEEE(c.Bytes()),
					examined: st.VerticesExamined, protruding: st.VerticesProtruding, removed: st.VerticesRemoved,
					roundsRun: st.RoundsRun, facesPerRound: fmt.Sprint(st.FacesPerRound),
				}
				if want, ok := pinnedBlobs[key]; !ok || got != want {
					t.Errorf("%s: blob or stats changed\n got  %q: {%#08x, %d, %d, %d, %d, %q},\n want %+v",
						key, key, got.crc, got.examined, got.protruding, got.removed, got.roundsRun, got.facesPerRound, want)
				}
			}
		}
	}
}

var pinnedBlobs = map[string]pin{
	"nucleus/1/ppvp/rounds10":  {0xbee79a56, 217, 189, 143, 8, "[320 236 172 110 78 50 40 38 34]"},
	"nucleus/1/ppvp/zero":      {0xbee79a56, 217, 189, 143, 8, "[320 236 172 110 78 50 40 38 34]"},
	"nucleus/1/ppmc/rounds10":  {0xe99d0ce8, 156, 115, 156, 10, "[320 236 170 116 80 52 38 26 16 10 8]"},
	"nucleus/1/ppmc/zero":      {0x04a15524, 157, 116, 157, 10, "[320 236 170 116 80 52 38 26 16 10 6]"},
	"nucleus/2/ppvp/rounds10":  {0x8219d293, 256, 195, 139, 9, "[320 236 172 112 80 60 48 46 44 42]"},
	"nucleus/2/ppvp/zero":      {0x8219d293, 256, 195, 139, 9, "[320 236 172 112 80 60 48 46 44 42]"},
	"nucleus/2/ppmc/rounds10":  {0xb47d72ea, 156, 117, 156, 10, "[320 236 170 116 80 56 40 26 18 14 8]"},
	"nucleus/2/ppmc/zero":      {0xb47d72ea, 156, 117, 156, 10, "[320 236 170 116 80 56 40 26 18 14 8]"},
	"nucleus/3/ppvp/rounds10":  {0x93102eea, 203, 182, 150, 9, "[320 236 172 116 84 54 36 28 22 20]"},
	"nucleus/3/ppvp/zero":      {0x93102eea, 203, 182, 150, 9, "[320 236 172 116 84 54 36 28 22 20]"},
	"nucleus/3/ppmc/rounds10":  {0x23298da3, 154, 114, 154, 10, "[320 236 170 118 80 56 38 28 20 16 12]"},
	"nucleus/3/ppmc/zero":      {0x23298da3, 154, 114, 154, 10, "[320 236 170 118 80 56 38 28 20 16 12]"},
	"nucleus/4/ppvp/rounds10":  {0x3204f14f, 197, 174, 153, 9, "[320 236 170 114 78 50 32 22 18 14]"},
	"nucleus/4/ppvp/zero":      {0x3204f14f, 197, 174, 153, 9, "[320 236 170 114 78 50 32 22 18 14]"},
	"nucleus/4/ppmc/rounds10":  {0xe86d809d, 156, 122, 156, 10, "[320 236 170 122 80 58 40 26 16 10 8]"},
	"nucleus/4/ppmc/zero":      {0xfd77dd5c, 158, 124, 158, 10, "[320 236 170 122 80 58 40 26 16 10 4]"},
	"nucleus/5/ppvp/rounds10":  {0x3aa3071a, 213, 180, 140, 7, "[320 236 170 116 78 56 42 40]"},
	"nucleus/5/ppvp/zero":      {0x3aa3071a, 213, 180, 140, 7, "[320 236 170 116 78 56 42 40]"},
	"nucleus/5/ppmc/rounds10":  {0xb1d7d6a1, 156, 112, 156, 10, "[320 236 170 120 78 56 38 26 18 12 8]"},
	"nucleus/5/ppmc/zero":      {0xb1d7d6a1, 156, 112, 156, 10, "[320 236 170 120 78 56 38 26 18 12 8]"},
	"nucleus/6/ppvp/rounds10":  {0x10bafcb7, 220, 188, 145, 8, "[320 236 172 116 80 56 40 32 30]"},
	"nucleus/6/ppvp/zero":      {0x10bafcb7, 220, 188, 145, 8, "[320 236 172 116 80 56 40 32 30]"},
	"nucleus/6/ppmc/rounds10":  {0x82fef7c6, 156, 118, 156, 10, "[320 236 170 118 78 52 34 22 16 10 8]"},
	"nucleus/6/ppmc/zero":      {0xb11f3843, 157, 119, 157, 10, "[320 236 170 118 78 52 34 22 16 10 6]"},
	"nucleus/7/ppvp/rounds10":  {0x4a9f68bd, 223, 194, 141, 8, "[320 236 170 120 82 60 48 42 38]"},
	"nucleus/7/ppvp/zero":      {0x4a9f68bd, 223, 194, 141, 8, "[320 236 170 120 82 60 48 42 38]"},
	"nucleus/7/ppmc/rounds10":  {0x42268288, 155, 118, 155, 10, "[320 236 170 120 82 58 40 28 20 14 10]"},
	"nucleus/7/ppmc/zero":      {0x42268288, 155, 118, 155, 10, "[320 236 170 120 82 58 40 28 20 14 10]"},
	"nucleus/8/ppvp/rounds10":  {0xa6ca6540, 210, 181, 149, 10, "[320 236 172 120 82 54 38 28 26 24 22]"},
	"nucleus/8/ppvp/zero":      {0xa6ca6540, 210, 181, 149, 10, "[320 236 172 120 82 54 38 28 26 24 22]"},
	"nucleus/8/ppmc/rounds10":  {0x696371c7, 156, 117, 156, 10, "[320 236 170 120 86 58 36 24 18 12 8]"},
	"nucleus/8/ppmc/zero":      {0x696371c7, 156, 117, 156, 10, "[320 236 170 120 86 58 36 24 18 12 8]"},
	"vessel/1/ppvp/rounds10":   {0x12e34b37, 900, 639, 326, 10, "[784 582 408 274 212 182 166 156 148 140 132]"},
	"vessel/1/ppvp/zero":       {0x12e34b37, 900, 639, 326, 10, "[784 582 408 274 212 182 166 156 148 140 132]"},
	"vessel/1/ppmc/rounds10":   {0x269792bc, 378, 252, 378, 9, "[784 572 378 252 180 120 80 52 32 28]"},
	"vessel/1/ppmc/zero":       {0x269792bc, 378, 252, 378, 9, "[784 572 378 252 180 120 80 52 32 28]"},
	"vessel/2/ppvp/rounds10":   {0xb51053dd, 819, 511, 304, 10, "[720 538 376 268 208 174 154 142 132 122 112]"},
	"vessel/2/ppvp/zero":       {0xb51053dd, 819, 511, 304, 10, "[720 538 376 268 208 174 154 142 132 122 112]"},
	"vessel/2/ppmc/rounds10":   {0xa501ddd6, 348, 217, 348, 10, "[720 526 348 236 164 108 68 44 28 26 24]"},
	"vessel/2/ppmc/zero":       {0xa501ddd6, 348, 217, 348, 10, "[720 526 348 236 164 108 68 44 28 26 24]"},
	"vessel/3/ppvp/rounds10":   {0x1a3f2adf, 893, 594, 323, 10, "[784 580 394 268 206 174 162 156 150 144 138]"},
	"vessel/3/ppvp/zero":       {0x1a3f2adf, 893, 594, 323, 10, "[784 580 394 268 206 174 162 156 150 144 138]"},
	"vessel/3/ppmc/rounds10":   {0x4ff8ffa1, 378, 236, 378, 9, "[784 572 378 256 180 116 76 50 38 28]"},
	"vessel/3/ppmc/zero":       {0x4ff8ffa1, 378, 236, 378, 9, "[784 572 378 256 180 116 76 50 38 28]"},
	"vessel/4/ppvp/rounds10":   {0x9c72cf01, 1082, 735, 446, 10, "[1024 752 520 354 260 224 200 178 162 146 132]"},
	"vessel/4/ppvp/zero":       {0x9c72cf01, 1082, 735, 446, 10, "[1024 752 520 354 260 224 200 178 162 146 132]"},
	"vessel/4/ppmc/rounds10":   {0x9b96c3ef, 496, 303, 496, 9, "[1024 752 498 344 242 156 106 68 48 32]"},
	"vessel/4/ppmc/zero":       {0x9b96c3ef, 496, 303, 496, 9, "[1024 752 498 344 242 156 106 68 48 32]"},
	"vessel5k/1/ppvp/rounds10": {0x5688bc69, 4716, 3572, 2652, 10, "[5920 4464 3142 2150 1486 1076 828 706 648 624 616]"},
	"vessel5k/1/ppvp/zero":     {0x5688bc69, 4716, 3572, 2652, 10, "[5920 4464 3142 2150 1486 1076 828 706 648 624 616]"},
	"vessel5k/1/ppmc/rounds10": {0xde3e1ac3, 2889, 1887, 2889, 10, "[5920 4426 2956 1900 1314 918 616 428 294 210 142]"},
	"vessel5k/1/ppmc/zero":     {0xde3e1ac3, 2889, 1887, 2889, 10, "[5920 4426 2956 1900 1314 918 616 428 294 210 142]"},
}

package storage

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/geom"
	"repro/internal/mesh"
	"repro/internal/ppvp"
)

// fileSeed saves n icospheres and returns the dataset file's bytes.
func fileSeed(t testing.TB, n int) []byte {
	var comps []*ppvp.Compressed
	for i := 0; i < n; i++ {
		c, _, err := ppvp.Compress(mesh.Icosphere(float64(i+1), 1), ppvp.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		comps = append(comps, c)
	}
	grid := NewGrid(geom.Box3{Min: geom.V(-5, -5, -5), Max: geom.V(5, 5, 5)}, 8)
	dir := t.TempDir()
	if err := NewTileset(grid, comps).Save(dir, map[string]string{"name": "seed"}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, FileName))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// FuzzDecodeTile feeds arbitrary bytes through the one dataset-file reader,
// strict and salvage, and first-LOD decodes what loads. Corrupt input must
// surface as an error or a report — never a panic or an allocation driven
// by a corrupt count — and a file the strict load accepts must salvage to
// the same objects with a clean report.
func FuzzDecodeTile(f *testing.F) {
	f.Add(fileSeed(f, 2))
	f.Add(fileSeed(f, 0))
	f.Add([]byte{})
	f.Add([]byte("TILE"))

	f.Fuzz(func(t *testing.T, data []byte) {
		var meta any
		strict, _, strictErr := decode(data, false, &meta)
		ts, rep, err := decode(data, true, nil)
		if strictErr == nil {
			if err != nil || !rep.Clean() || len(ts.Objects) != len(strict.Objects) {
				t.Fatalf("strict load accepted what salvage did not: err = %v, report = %+v", err, rep)
			}
			for i, o := range strict.Objects {
				if !bytes.Equal(o.Comp.Bytes(), ts.Objects[i].Comp.Bytes()) {
					t.Fatalf("object %d differs between strict and salvage loads", i)
				}
			}
		}
		if err != nil {
			return
		}
		for _, o := range ts.Objects {
			if o == nil {
				continue
			}
			if d, err := o.Comp.NewDecoder(); err == nil {
				d.DecodeTo(0)
			}
		}
	})
}

// TestCorruptTileFaultDetected arms the storage.tile corrupt fault, which
// fires once per tile region, and checks the region CRC catches the flipped
// bytes of a saved file.
func TestCorruptTileFaultDetected(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	data := fileSeed(t, 2)
	if _, _, err := decode(data, false, nil); err != nil {
		t.Fatalf("clean file failed to load: %v", err)
	}
	faultinject.Arm(faultinject.PointStorageTile, faultinject.Fault{Corrupt: true})
	if _, _, err := decode(data, false, nil); !errors.Is(err, ErrBadTile) {
		t.Fatalf("corrupted tile err = %v, want ErrBadTile", err)
	}
}

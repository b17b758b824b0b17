package core

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/geom"
	"repro/internal/index/rtree"
	"repro/internal/mesh"
	"repro/internal/partition"
	"repro/internal/ppvp"
	"repro/internal/storage"
)

// datasetManifest is the JSON sidecar stored next to the tile files. Tiles
// hold the compressed objects; the manifest records the grid geometry so a
// load rebuilds identical cuboid assignments. Indexes and skeletons are
// rebuilt on load (they are derived data).
type datasetManifest struct {
	Name                 string     `json:"name"`
	SpaceMin             [3]float64 `json:"space_min"`
	SpaceMax             [3]float64 `json:"space_max"`
	Nx                   int        `json:"nx"`
	Ny                   int        `json:"ny"`
	Nz                   int        `json:"nz"`
	PartitionTargetFaces int        `json:"partition_target_faces"`
	// Objects is the saved object count (0 in pre-existing manifests). A
	// salvage load uses it to account for trailing objects whose records
	// were destroyed — without it, an object with the highest ID could
	// vanish without a trace in the report.
	Objects int `json:"objects,omitempty"`
}

const manifestFile = "dataset.json"

// SaveDataset persists a dataset as tile files plus a manifest under dir.
// The layout matches the paper's storage design: one file per cuboid with
// the compressed blobs of its objects, loadable back into memory as a unit.
func (d *Dataset) SaveDataset(dir string) error {
	if err := d.Tileset.SaveTiles(dir); err != nil {
		return err
	}
	g := d.Tileset.Grid
	man := datasetManifest{
		Name:     d.Name,
		SpaceMin: [3]float64{g.Space.Min.X, g.Space.Min.Y, g.Space.Min.Z},
		SpaceMax: [3]float64{g.Space.Max.X, g.Space.Max.Y, g.Space.Max.Z},
		Nx:       g.Nx, Ny: g.Ny, Nz: g.Nz,
		PartitionTargetFaces: d.partitionTargetFaces,
		Objects:              d.Len(),
	}
	blob, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return err
	}
	// Atomic replace: a crash mid-save never leaves a truncated manifest
	// masking the tiles already on disk.
	return storage.AtomicWriteFile(filepath.Join(dir, manifestFile), blob, 0o644)
}

// loadManifest reads and validates the dataset manifest of dir, returning
// the recorded grid geometry.
func loadManifest(dir string) (datasetManifest, storage.Grid, error) {
	var man datasetManifest
	blob, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		return man, storage.Grid{}, fmt.Errorf("core: reading dataset manifest: %w", err)
	}
	if err := json.Unmarshal(blob, &man); err != nil {
		return man, storage.Grid{}, fmt.Errorf("core: parsing dataset manifest: %w", err)
	}
	grid := storage.Grid{
		Space: geom.Box3{
			Min: geom.V(man.SpaceMin[0], man.SpaceMin[1], man.SpaceMin[2]),
			Max: geom.V(man.SpaceMax[0], man.SpaceMax[1], man.SpaceMax[2]),
		},
		Nx: man.Nx, Ny: man.Ny, Nz: man.Nz,
	}
	return man, grid, nil
}

// LoadDataset restores a dataset saved with SaveDataset: tiles are read
// back, and the R-trees and skeletons are rebuilt from the compressed
// objects (decoding the highest LOD once per object when partitioning was
// enabled).
func (e *Engine) LoadDataset(dir string) (*Dataset, error) {
	man, grid, err := loadManifest(dir)
	if err != nil {
		return nil, err
	}
	ts, err := storage.LoadTiles(dir, grid)
	if err != nil {
		return nil, err
	}
	if len(ts.Objects) == 0 {
		return nil, fmt.Errorf("core: dataset in %s has no objects", dir)
	}
	if man.Objects > 0 && man.Objects != len(ts.Objects) {
		return nil, fmt.Errorf("core: dataset in %s has %d objects, manifest says %d",
			dir, len(ts.Objects), man.Objects)
	}

	d := &Dataset{
		Name:                 man.Name,
		Tileset:              ts,
		maxLOD:               ts.Objects[0].Comp.MaxLOD(),
		partitionTargetFaces: man.PartitionTargetFaces,
	}
	entries := make([]rtree.Entry, len(ts.Objects))
	for i, o := range ts.Objects {
		if o.Comp.MaxLOD() < d.maxLOD {
			d.maxLOD = o.Comp.MaxLOD()
		}
		entries[i] = rtree.Entry{Box: o.MBB(), ID: o.ID}
	}
	d.tree = rtree.BulkLoad(entries)

	if man.PartitionTargetFaces > 0 {
		if err := d.rebuildPartitions(e, man.PartitionTargetFaces, nil); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// LoadDatasetSalvage restores as much of a damaged dataset as possible:
// tiles are read in salvage mode (per-object checksums let undamaged
// objects survive a corrupted neighbor), and the returned report — which
// the dataset keeps as Dataset.Salvage — says exactly what was skipped.
// An object that could not be loaded is a hole: queries refuse it with
// ErrQuarantined, and there is no blob for the breaker to track. The load
// fails only when the manifest is unreadable or no object survives —
// anything less is a degraded success.
func (e *Engine) LoadDatasetSalvage(dir string) (*Dataset, *storage.SalvageReport, error) {
	man, grid, err := loadManifest(dir)
	if err != nil {
		return nil, nil, err
	}
	ts, rep, err := storage.LoadTilesSalvage(dir, grid)
	if err != nil {
		return nil, nil, err
	}
	// The tileset is sized by the highest surviving ID; the manifest's count
	// restores the trailing holes whose records were destroyed outright.
	for len(ts.Objects) < man.Objects {
		ts.Objects = append(ts.Objects, nil)
	}

	d := &Dataset{
		Name:                 man.Name,
		Tileset:              ts,
		maxLOD:               -1,
		partitionTargetFaces: man.PartitionTargetFaces,
		Salvage:              rep,
	}
	entries := make([]rtree.Entry, 0, rep.ObjectsLoaded)
	for _, o := range ts.Objects {
		if o == nil {
			continue
		}
		if d.maxLOD < 0 || o.Comp.MaxLOD() < d.maxLOD {
			d.maxLOD = o.Comp.MaxLOD()
		}
		entries = append(entries, rtree.Entry{Box: o.MBB(), ID: o.ID})
	}
	if len(entries) == 0 {
		return nil, rep, fmt.Errorf("core: dataset in %s has no loadable objects", dir)
	}
	d.tree = rtree.BulkLoad(entries)

	// Make the report authoritative: a record whose ID field was itself
	// corrupted is reported under its garbage ID by the tile walk, so every
	// hole not already covered gets its own entry.
	reported := make(map[int64]bool, len(rep.ObjectsDropped))
	for _, dr := range rep.ObjectsDropped {
		reported[dr.ID] = true
	}
	for i, o := range ts.Objects {
		if o == nil && !reported[int64(i)] {
			rep.ObjectsDropped = append(rep.ObjectsDropped, storage.DroppedObject{
				ID: int64(i), Reason: "not recovered from any tile",
			})
		}
	}

	if man.PartitionTargetFaces > 0 {
		if err := d.rebuildPartitions(e, man.PartitionTargetFaces, rep); err != nil {
			return nil, rep, err
		}
	}
	return d, rep, nil
}

// rebuildPartitions recomputes skeletons and the sub-object R-tree from the
// stored objects (decoding each at its highest LOD). With a non-nil salvage
// report the rebuild is lenient: nil holes are skipped, and an object whose
// blob passed its checksum but fails to decode has its blob quarantined and
// is recorded as dropped instead of failing the load (it keeps its whole-MBB
// entry so the filter trees stay consistent; queries will skip it as
// quarantined).
func (d *Dataset) rebuildPartitions(e *Engine, targetFaces int, salvage *storage.SalvageReport) error {
	d.skeletons = make([][]geom.Vec3, len(d.Tileset.Objects))
	var (
		mu          sync.Mutex
		partEntries []rtree.Entry
		wg          sync.WaitGroup
		firstErr    error
	)
	sem := make(chan struct{}, e.opts.Workers)
	for i, o := range d.Tileset.Objects {
		if o == nil {
			continue
		}
		wg.Add(1)
		go func(i int, comp *ppvp.Compressed) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			m, err := decodeRecovered(comp)
			if err != nil {
				if salvage != nil {
					e.quar.Trip(comp.ID(), firstLine(err.Error()))
					mu.Lock()
					salvage.ObjectsDropped = append(salvage.ObjectsDropped, storage.DroppedObject{
						ID: int64(i), Reason: "decode failed: " + firstLine(err.Error()),
					})
					partEntries = append(partEntries, rtree.Entry{Box: comp.MBB(), ID: int64(i)})
					mu.Unlock()
					return
				}
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				return
			}
			k := partition.GroupCount(m.NumFaces(), targetFaces)
			if k <= 1 {
				mu.Lock()
				partEntries = append(partEntries, rtree.Entry{Box: comp.MBB(), ID: int64(i)})
				mu.Unlock()
				return
			}
			skel := partition.Skeleton(m, k)
			groups := partition.AssignFaces(m, skel)
			mu.Lock()
			d.skeletons[i] = skel
			for _, g := range groups {
				partEntries = append(partEntries, rtree.Entry{Box: g.Box, ID: int64(i)})
			}
			mu.Unlock()
		}(i, o.Comp)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	d.partTree = rtree.BulkLoad(partEntries)
	return nil
}

// decodeRecovered decodes the object's top LOD, converting decoder panics
// into errors: a salvaged blob can pass its checksum (the corruption
// predates the save) and still be hostile to the decoder.
func decodeRecovered(comp *ppvp.Compressed) (m *mesh.Mesh, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("decode panic: %v", r)
		}
	}()
	return comp.Decode(comp.MaxLOD())
}

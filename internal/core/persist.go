package core

import (
	"fmt"

	"repro/internal/mesh"
	"repro/internal/ppvp"
	"repro/internal/storage"
)

// datasetMeta is what SaveDataset adds to the dataset file's header; the
// file records the grid and object count itself. Indexes and skeletons are
// rebuilt on load (they are derived data).
type datasetMeta struct {
	Name                 string `json:"name"`
	PartitionTargetFaces int    `json:"partition_target_faces"`
}

// SaveDataset persists a dataset as one file in dir (storage.FileName)
// holding the compressed blobs cuboid by cuboid, the paper's storage
// layout, loadable back into memory as a unit. A save replaces the
// previous one in a single rename.
func (d *Dataset) SaveDataset(dir string) error {
	return d.Tileset.Save(dir, datasetMeta{Name: d.Name, PartitionTargetFaces: d.partitionTargetFaces})
}

// LoadDataset restores a dataset saved with SaveDataset, failing on any
// damage: the R-trees and skeletons are rebuilt from the compressed objects
// as BuildDataset builds them (decoding the highest LOD once per object that
// is partitioned).
func (e *Engine) LoadDataset(dir string) (*Dataset, error) {
	d, _, err := e.load(dir, false)
	return d, err
}

// LoadDatasetSalvage restores as much of a damaged dataset as possible:
// per-object checksums let undamaged objects survive a corrupted neighbor,
// and the returned report — which the dataset keeps as Dataset.Salvage —
// says exactly what was lost. An object that could not be loaded is a hole:
// queries refuse it with ErrQuarantined, and there is no blob for the
// breaker to track. The load fails only when the file's header is
// unreadable or no object survives — anything less is a degraded success.
func (e *Engine) LoadDatasetSalvage(dir string) (*Dataset, *storage.SalvageReport, error) {
	return e.load(dir, true)
}

// load reads dir's dataset file strictly or by salvage and rebuilds the
// indexes. A salvage load is lenient in the rebuild too: an object whose
// blob passed its checksum but fails to decode for partitioning has its blob
// quarantined and is reported as dropped instead of failing the load (it
// keeps its whole-MBB entry, and queries skip it as quarantined).
func (e *Engine) load(dir string, salvage bool) (*Dataset, *storage.SalvageReport, error) {
	var meta datasetMeta
	ts, rep, err := storage.Load(dir, salvage, &meta)
	if err != nil {
		return nil, nil, err
	}
	var drops *storage.SalvageReport
	if salvage {
		drops = rep
	}
	d, err := e.newDataset(meta.Name, ts, meta.PartitionTargetFaces, drops)
	if err != nil {
		return nil, rep, fmt.Errorf("%w in %s", err, dir)
	}
	return d, rep, nil
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

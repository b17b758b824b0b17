// Package repro is a from-scratch Go reproduction of "3DPro: Querying
// Complex Three-Dimensional Data with Progressive Compression and
// Refinement" (EDBT 2022).
//
// The library lives under internal/: the geometric substrate (geom, mesh),
// the paper's PPVP progressive compression (ppvp), the spatial indexes
// (index/rtree, index/aabbtree), the refinement accelerators (partition,
// gpusim), the storage and caching layers (storage, cache), the query
// engine with the Filter-Progressive-Refine paradigm (core), the synthetic
// dataset generators (datagen), the PostGIS-like baseline (sdbms), and the
// experiment harness regenerating every table and figure of the paper's
// evaluation (bench).
//
// Entry points: cmd/3dpro (CLI), cmd/experiments (evaluation driver), and
// the runnable examples under examples/. The repository benchmark is the
// separate module under benchmark/ (see BENCHMARK.json).
package repro

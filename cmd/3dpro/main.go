// Command 3dpro is the command-line interface to the 3DPro engine:
// generate synthetic datasets, compress meshes with PPVP, inspect and
// decode compressed blobs, and run the three spatial joins.
//
// Usage:
//
//	3dpro generate -kind nuclei|vessels -count N -out DIR [-seed S]
//	3dpro compress -in DIR -out DIR [-rounds N] [-policy ppvp|ppmc]
//	3dpro inspect  -in FILE.3dp
//	3dpro decode   -in FILE.3dp -lod L -out FILE.off
//	3dpro query    -kind intersect|within|nn -target DIR -source DIR
//	               [-dist D] [-paradigm fr|fpr] [-accel brute|aabb|partition|gpu|partition+gpu]
//	3dpro profile  -target DIR -source DIR -kind intersect|within|nn [-dist D]
//
// DIRs hold OFF meshes (generate/compress) or .3dp blobs (query/profile).
package main

import (
	"fmt"
	"os"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "generate":
		err = cmdGenerate(os.Args[2:])
	case "compress":
		err = cmdCompress(os.Args[2:])
	case "ingest":
		err = cmdIngest(os.Args[2:])
	case "inspect":
		err = cmdInspect(os.Args[2:])
	case "decode":
		err = cmdDecode(os.Args[2:])
	case "query":
		err = cmdQuery(os.Args[2:])
	case "profile":
		err = cmdProfile(os.Args[2:])
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "3dpro: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "3dpro:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `3dpro — progressive 3D spatial query engine

commands:
  generate   create a synthetic nuclei or vessel dataset as OFF files
  compress   PPVP-compress a directory of OFF meshes into .3dp blobs
  ingest     build a persistent dataset directory (one dataset file)
  inspect    print metadata of a .3dp blob
  decode     decode a .3dp blob at a chosen LOD back to OFF
  query      run an intersect/within/nn join between two datasets
  profile    recommend a progressive-refinement LOD schedule

run "3dpro <command> -h" for flags`)
}

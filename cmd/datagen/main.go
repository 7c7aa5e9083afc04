// Command datagen emits the evaluation datasets of the paper as CSV
// ("id,x,y" rows, coordinates in [0, 10000]²).
//
// Usage:
//
//	datagen -kind uniform -n 200000 -seed 1 > ui.csv
//	datagen -kind gaussian -n 200000 -clusters 10 -sigma 1000 > g.csv
//	datagen -kind pp > pp.csv      # real-like Populated Places stand-in
//	datagen -kind sc -n 5000 > sc_small.csv
//
// Partitioning a set into a shard deployment is rcjjoin's job:
// rcjjoin -p u.csv -self -save-shards 4 -shards-out u.rcjm -shard-max-diameter 250.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"repro/internal/rtree"
	"repro/internal/workload"
)

func main() {
	var (
		kind     = flag.String("kind", "uniform", "dataset kind: uniform, gaussian, pp, sc, lo")
		n        = flag.Int("n", 0, "number of points (0 = kind's default; required for uniform/gaussian)")
		seed     = flag.Int64("seed", 1, "random seed (uniform/gaussian)")
		clusters = flag.Int("clusters", 10, "number of clusters (gaussian)")
		sigma    = flag.Float64("sigma", 1000, "cluster standard deviation per dimension (gaussian)")
	)
	flag.Parse()

	var pts []rtree.PointEntry
	switch *kind {
	case "uniform":
		if *n <= 0 {
			fatalf("-n is required for uniform data")
		}
		pts = workload.Uniform(*n, *seed)
	case "gaussian":
		if *n <= 0 {
			fatalf("-n is required for gaussian data")
		}
		pts = workload.GaussianClusters(*n, *clusters, *sigma, *seed)
	case "pp":
		pts = workload.RealLike(workload.PP, *n)
	case "sc":
		pts = workload.RealLike(workload.SC, *n)
	case "lo":
		pts = workload.RealLike(workload.LO, *n)
	default:
		fatalf("unknown kind %q", *kind)
	}

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	if err := workload.WritePoints(w, pts); err != nil {
		fatalf("%v", err)
	}
	fmt.Fprintf(os.Stderr, "datagen: wrote %d points\n", len(pts))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "datagen: "+format+"\n", args...)
	os.Exit(1)
}

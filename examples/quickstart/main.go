// Quickstart: the smallest complete use of the rcj library.
//
// Two tiny pointsets are indexed and joined; every result pair comes with
// the center of its smallest enclosing circle — a fair middleman location
// equidistant from both points — and the circle's radius.
//
// This is exactly the configuration of Figure 1 in the paper: P = {p1, p2},
// Q = {q1, q2}, whose RCJ result is {<p1,q1>, <p2,q1>, <p2,q2>} — the pair
// <p1,q2> is excluded because its circle contains p2.
//
// Run: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro/rcj"
)

func main() {
	// The paper's Figure 1 layout (coordinates in [0,1], any scale works).
	p := []rcj.Point{
		{X: 0.30, Y: 0.75, ID: 1}, // p1
		{X: 0.40, Y: 0.40, ID: 2}, // p2
	}
	q := []rcj.Point{
		{X: 0.55, Y: 0.65, ID: 1}, // q1
		{X: 0.65, Y: 0.20, ID: 2}, // q2
	}

	eng := rcj.NewEngine(rcj.EngineConfig{})
	ixP, err := eng.BuildIndex(p, rcj.IndexConfig{})
	if err != nil {
		log.Fatal(err)
	}
	defer ixP.Close()
	ixQ, err := eng.BuildIndex(q, rcj.IndexConfig{})
	if err != nil {
		log.Fatal(err)
	}
	defer ixQ.Close()

	ctx := context.Background()
	pairs, stats, err := eng.RunCollect(ctx, ixQ, ixP, rcj.Query{SortByDiameter: true})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("ring-constrained join: %d pairs (from %d candidates)\n", stats.Results, stats.Candidates)
	for _, pr := range pairs {
		fmt.Printf("  <p%d, q%d>  middleman at (%.3f, %.3f), radius %.3f\n",
			pr.P.ID, pr.Q.ID, pr.Center.X, pr.Center.Y, pr.Radius)
	}

	// A constrained Query over the same indexes — here just the single
	// tightest pair, computed with top-k pushdown instead of sorting the
	// full result.
	best, _, err := eng.RunCollect(ctx, ixQ, ixP, rcj.Query{TopK: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tightest pair (Query{TopK: 1}): <p%d, q%d>, ring diameter %.3f\n",
		best[0].P.ID, best[0].Q.ID, best[0].Diameter())
}

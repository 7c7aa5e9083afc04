// Postboxes: the paper's self-join scenario.
//
// A postal service wants postboxes at locations convenient to public
// access. The self-RCJ of the building set yields, for every qualifying
// pair of buildings, the point halfway between them with no third building
// nearer — a natural, parameter-free distribution of postboxes that thins
// out in dense blocks and spreads in sparse ones.
//
// The demo also contrasts Euclidean and Manhattan (L1) placements: on a
// street grid, the L1 variant (the paper's future-work generalization) is
// the right notion of "equidistant".
//
// Run: go run ./examples/postboxes
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro/rcj"
)

func main() {
	const numBuildings = 3000
	rng := rand.New(rand.NewSource(77))

	// Buildings on a loose Manhattan-style grid with jitter and gaps.
	buildings := make([]rcj.Point, 0, numBuildings)
	id := int64(0)
	for len(buildings) < numBuildings {
		bx := float64(rng.Intn(60))*160 + rng.NormFloat64()*12
		by := float64(rng.Intn(60))*160 + rng.NormFloat64()*12
		if rng.Float64() < 0.15 { // vacant lot
			continue
		}
		buildings = append(buildings, rcj.Point{X: bx, Y: by, ID: id})
		id++
	}

	eng := rcj.NewEngine(rcj.EngineConfig{})
	ix, err := eng.BuildIndex(buildings, rcj.IndexConfig{})
	if err != nil {
		log.Fatal(err)
	}
	defer ix.Close()

	ctx := context.Background()
	pairs, stats, err := eng.RunCollect(ctx, ix, ix, rcj.Query{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("self-RCJ over %d buildings: %d postbox sites (Euclidean)\n", len(buildings), stats.Results)

	l1Pairs, l1Stats, err := eng.RunCollect(ctx, ix, ix, rcj.Query{Metric: rcj.L1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("self-RCJ over %d buildings: %d postbox sites (Manhattan/L1)\n\n", len(buildings), l1Stats.Results)

	// How much do the two metrics disagree about which building pairs get a
	// box?
	l2Set := make(map[[2]int64]bool, len(pairs))
	for _, p := range pairs {
		l2Set[[2]int64{p.P.ID, p.Q.ID}] = true
	}
	common := 0
	for _, p := range l1Pairs {
		if l2Set[[2]int64{p.P.ID, p.Q.ID}] {
			common++
		}
	}
	fmt.Printf("pairs selected by both metrics: %d (%.1f%% of Euclidean)\n",
		common, 100*float64(common)/float64(len(pairs)))

	fmt.Println("\nfive sample sites (Euclidean):")
	for _, p := range pairs[:5] {
		fmt.Printf("  box at (%7.1f, %7.1f) between buildings #%d and #%d (walk: %.0f m each)\n",
			p.Center.X, p.Center.Y, p.P.ID, p.Q.ID, p.Radius)
	}
	fmt.Println("five sample sites (Manhattan):")
	for _, p := range l1Pairs[:5] {
		fmt.Printf("  box at (%7.1f, %7.1f) between buildings #%d and #%d (grid walk: %.0f m each)\n",
			p.Center.X, p.Center.Y, p.P.ID, p.Q.ID, p.Radius)
	}
}

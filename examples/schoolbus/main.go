// School bus stops: weighted ranking of RCJ results.
//
// A bus company allocates stops at centers of RCJ pairs between residential
// estates, ranked in descending order of the number of children in the two
// estates of each pair (Section 1 of the paper). The weight lives outside
// the geometry: RCJ derives the candidate locations, the application ranks
// them.
//
// Run: go run ./examples/schoolbus
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro/rcj"
)

func main() {
	const numEstates = 2000
	rng := rand.New(rand.NewSource(1234))

	// Estates in suburban clusters; each has a child count.
	centers := make([][2]float64, 8)
	for i := range centers {
		centers[i] = [2]float64{rng.Float64() * 10000, rng.Float64() * 10000}
	}
	estates := make([]rcj.Point, numEstates)
	children := make(map[int64]float64, numEstates)
	for i := range estates {
		c := centers[rng.Intn(len(centers))]
		estates[i] = rcj.Point{
			X:  c[0] + rng.NormFloat64()*900,
			Y:  c[1] + rng.NormFloat64()*900,
			ID: int64(i),
		}
		children[int64(i)] = float64(5 + rng.Intn(120))
	}

	eng := rcj.NewEngine(rcj.EngineConfig{})
	ix, err := eng.BuildIndex(estates, rcj.IndexConfig{})
	if err != nil {
		log.Fatal(err)
	}
	defer ix.Close()

	pairs, stats, err := eng.RunCollect(context.Background(), ix, ix, rcj.Query{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d estates -> %d candidate stop locations (self-RCJ, %d candidates verified)\n\n",
		numEstates, stats.Results, stats.Candidates)

	// Rank by the total number of children served (paper: "sorted in
	// descending order of the number of children in the residential estates
	// associated with the RCJ pair").
	rcj.RankPairsByWeight(pairs, func(p rcj.Point) float64 { return children[p.ID] })

	fmt.Println("top 10 stops by children served:")
	var covered float64
	for i, p := range pairs[:10] {
		kids := children[p.P.ID] + children[p.Q.ID]
		covered += kids
		fmt.Printf("  %2d. stop at (%7.1f, %7.1f) serves estates #%d+#%d: %3.0f children, walk %.0f m\n",
			i+1, p.Center.X, p.Center.Y, p.P.ID, p.Q.ID, kids, p.Radius)
	}
	fmt.Printf("\ntop-10 stops cover %.0f children\n", covered)
}

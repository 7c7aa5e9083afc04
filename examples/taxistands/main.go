// Taxi stands on a road network: the paper's future-work generalization of
// RCJ to shortest-path distance (Section 6).
//
// Cinemas and restaurants sit on the intersections of a street grid. The
// network ring-constrained join finds pairs whose *network ball* — centered
// at the midpoint of the shortest path, radius half the path length — holds
// no other venue; the center is the fair taxi-stand location measured in
// actual driving distance, not straight-line distance.
//
// The demo contrasts the network result with the Euclidean result on the
// same venues: street detours change both which pairs qualify and where the
// middleman lands.
//
// Run: go run ./examples/taxistands
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/roadnet"
	"repro/rcj"
)

func main() {
	const (
		rows, cols = 18, 18
		spacing    = 120.0
	)
	g := roadnet.GridNetwork(rows, cols, spacing, 2024)
	cinemas := roadnet.RandomPointsOnNodes(g, 40, 7)
	restaurants := roadnet.RandomPointsOnNodes(g, 40, 8)

	netPairs, stats, err := roadnet.Join(g, cinemas, restaurants)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("street grid: %d intersections, %d cinemas, %d restaurants\n",
		g.NumNodes(), len(cinemas), len(restaurants))
	fmt.Printf("network RCJ: %d taxi-stand sites (%d candidates verified, %d Dijkstra settlements)\n\n",
		stats.Results, stats.Candidates, stats.SettledNodes)

	// The same venues under Euclidean distance.
	toEuclid := func(pts []roadnet.PointRef) []rcj.Point {
		out := make([]rcj.Point, len(pts))
		for i, p := range pts {
			pos := g.Pos(p.Node)
			out[i] = rcj.Point{X: pos.X, Y: pos.Y, ID: p.ID}
		}
		return out
	}
	eng := rcj.NewEngine(rcj.EngineConfig{})
	ixC, err := eng.BuildIndex(toEuclid(cinemas), rcj.IndexConfig{})
	if err != nil {
		log.Fatal(err)
	}
	defer ixC.Close()
	ixR, err := eng.BuildIndex(toEuclid(restaurants), rcj.IndexConfig{})
	if err != nil {
		log.Fatal(err)
	}
	defer ixR.Close()
	eucPairs, _, err := eng.RunCollect(context.Background(), ixR, ixC, rcj.Query{})
	if err != nil {
		log.Fatal(err)
	}

	netSet := map[[2]int64]bool{}
	for _, p := range netPairs {
		netSet[[2]int64{p.P.ID, p.Q.ID}] = true
	}
	common := 0
	for _, p := range eucPairs {
		if netSet[[2]int64{p.P.ID, p.Q.ID}] {
			common++
		}
	}
	fmt.Printf("Euclidean RCJ on the same venues: %d pairs\n", len(eucPairs))
	fmt.Printf("agreement between metrics: %d pairs (%.0f%% of network result)\n\n",
		common, 100*float64(common)/float64(len(netPairs)))

	fmt.Println("five taxi stands (network metric):")
	for _, p := range netPairs[:5] {
		loc := g.Embedding(p.Center)
		fmt.Printf("  stand near (%6.0f, %6.0f): cinema #%d and restaurant #%d, %.0f m drive each\n",
			loc.X, loc.Y, p.P.ID, p.Q.ID, p.Radius)
	}
}

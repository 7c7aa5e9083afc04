// Recycling stations: the paper's headline decision-support scenario.
//
// A city wants recycling stations placed at fair locations between
// restaurants and residential complexes (both produce large volumes of
// recyclables). The ring-constrained join derives one candidate station per
// result pair: the circle center is equidistant from its restaurant and its
// residence, and — because the circle contains no other facility — everyone
// arriving at the station finds that restaurant/residence pair to be their
// nearest, so the station's catchment is unambiguous.
//
// The demo synthesizes a city (clustered restaurants, wider residential
// sprawl), runs the join, and prints summary statistics plus the ten most
// central stations.
//
// Run: go run ./examples/recycling
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro/rcj"
)

func main() {
	const (
		numRestaurants = 4000
		numResidences  = 6000
		citySize       = 10000.0
	)
	rng := rand.New(rand.NewSource(2008))

	// Restaurants cluster in a few commercial districts.
	districts := make([][2]float64, 12)
	for i := range districts {
		districts[i] = [2]float64{rng.Float64() * citySize, rng.Float64() * citySize}
	}
	restaurants := make([]rcj.Point, numRestaurants)
	for i := range restaurants {
		d := districts[rng.Intn(len(districts))]
		restaurants[i] = rcj.Point{
			X:  clamp(d[0]+rng.NormFloat64()*400, citySize),
			Y:  clamp(d[1]+rng.NormFloat64()*400, citySize),
			ID: int64(i),
		}
	}
	// Residences sprawl more widely around the same districts, plus suburbs.
	residences := make([]rcj.Point, numResidences)
	for i := range residences {
		var x, y float64
		if rng.Float64() < 0.7 {
			d := districts[rng.Intn(len(districts))]
			x = clamp(d[0]+rng.NormFloat64()*1200, citySize)
			y = clamp(d[1]+rng.NormFloat64()*1200, citySize)
		} else {
			x, y = rng.Float64()*citySize, rng.Float64()*citySize
		}
		residences[i] = rcj.Point{X: x, Y: y, ID: int64(i)}
	}

	eng := rcj.NewEngine(rcj.EngineConfig{})
	ixR, err := eng.BuildIndex(restaurants, rcj.IndexConfig{})
	if err != nil {
		log.Fatal(err)
	}
	defer ixR.Close()
	ixH, err := eng.BuildIndex(residences, rcj.IndexConfig{})
	if err != nil {
		log.Fatal(err)
	}
	defer ixH.Close()

	// Outer input: residences (Q); inner: restaurants (P).
	pairs, stats, err := eng.RunCollect(context.Background(), ixH, ixR, rcj.Query{SortByDiameter: true})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("city: %d restaurants, %d residential complexes\n", numRestaurants, numResidences)
	fmt.Printf("RCJ proposes %d station sites (candidates verified: %d, page faults: %d)\n\n",
		stats.Results, stats.Candidates, stats.PageFaults)

	// Note the parameter-free density adaptation the paper emphasizes:
	// stations in dense districts serve tight pairs, suburban stations
	// cover wide ones.
	var sumD float64
	for _, pr := range pairs {
		sumD += pr.Diameter()
	}
	fmt.Printf("station spacing adapts to density: ring diameters span %.1f m – %.1f m (mean %.1f m)\n\n",
		pairs[0].Diameter(), pairs[len(pairs)-1].Diameter(), sumD/float64(len(pairs)))

	fmt.Println("ten most central station sites (tightest restaurant/residence pairs):")
	for _, pr := range pairs[:10] {
		fmt.Printf("  station at (%7.1f, %7.1f): restaurant #%d and residence #%d, each %.1f m away\n",
			pr.Center.X, pr.Center.Y, pr.P.ID, pr.Q.ID, pr.Radius)
	}
}

func clamp(v, max float64) float64 {
	if v < 0 {
		return 0
	}
	if v > max {
		return max
	}
	return v
}

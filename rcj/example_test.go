package rcj_test

import (
	"context"
	"fmt"
	"log"

	"repro/rcj"
)

// Example reproduces Figure 1 of the paper: P = {p1, p2}, Q = {q1, q2}.
// The pair <p1, q2> is excluded because its enclosing circle contains p2;
// the other three pairs qualify.
func Example() {
	p := []rcj.Point{
		{X: 0.30, Y: 0.75, ID: 1},
		{X: 0.40, Y: 0.40, ID: 2},
	}
	q := []rcj.Point{
		{X: 0.55, Y: 0.65, ID: 1},
		{X: 0.65, Y: 0.20, ID: 2},
	}
	ixP, err := rcj.BuildIndex(p, rcj.IndexConfig{})
	if err != nil {
		log.Fatal(err)
	}
	defer ixP.Close()
	ixQ, err := rcj.BuildIndex(q, rcj.IndexConfig{})
	if err != nil {
		log.Fatal(err)
	}
	defer ixQ.Close()

	eng := rcj.NewEngine(rcj.EngineConfig{})
	pairs, _, err := eng.RunCollect(context.Background(), ixQ, ixP, rcj.Query{SortByDiameter: true})
	if err != nil {
		log.Fatal(err)
	}
	for _, pr := range pairs {
		fmt.Printf("<p%d, q%d>\n", pr.P.ID, pr.Q.ID)
	}
	// Output:
	// <p1, q1>
	// <p2, q1>
	// <p2, q2>
}

// ExampleEngine_RunSelfCollect places postboxes among buildings: each
// unordered pair of buildings whose enclosing circle contains no third
// building gets a box at the midpoint.
func ExampleEngine_RunSelfCollect() {
	buildings := []rcj.Point{
		{X: 0, Y: 0, ID: 1},
		{X: 4, Y: 0, ID: 2},
		{X: 8, Y: 0, ID: 3},
	}
	ix, err := rcj.BuildIndex(buildings, rcj.IndexConfig{})
	if err != nil {
		log.Fatal(err)
	}
	defer ix.Close()
	eng := rcj.NewEngine(rcj.EngineConfig{})
	pairs, _, err := eng.RunCollect(context.Background(), ix, ix, rcj.Query{SortByDiameter: true})
	if err != nil {
		log.Fatal(err)
	}
	// <1,3> is excluded: building 2 sits inside its circle.
	for _, pr := range pairs {
		fmt.Printf("box at (%.0f, %.0f) for buildings %d and %d\n",
			pr.Center.X, pr.Center.Y, pr.P.ID, pr.Q.ID)
	}
	// Output:
	// box at (2, 0) for buildings 1 and 2
	// box at (6, 0) for buildings 2 and 3
}

// ExampleVerifyPair validates a specific candidate pair without running the
// whole join.
func ExampleVerifyPair() {
	p := []rcj.Point{{X: 0, Y: 0, ID: 1}, {X: 2, Y: 2, ID: 2}}
	q := []rcj.Point{{X: 4, Y: 0, ID: 1}}
	ixP, err := rcj.BuildIndex(p, rcj.IndexConfig{})
	if err != nil {
		log.Fatal(err)
	}
	defer ixP.Close()
	ixQ, err := rcj.BuildIndex(q, rcj.IndexConfig{})
	if err != nil {
		log.Fatal(err)
	}
	defer ixQ.Close()

	ok, err := rcj.VerifyPair(ixQ, ixP, p[0], q[0])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("pair <p1, q1> qualifies:", ok)
	// p2 at (2,2) lies inside the circle through (0,0) and (4,0)? Its
	// center is (2,0), radius 2; (2,2) is at distance 2 — on the boundary,
	// which the closed-circle convention counts as covering.
	// Output:
	// pair <p1, q1> qualifies: false
}

// ExampleQuery_topK asks for the tightest pairs only: the TopK bound is
// pushed into the traversal, which keeps O(k) pairs and prunes the rest.
func ExampleQuery_topK() {
	var p, q []rcj.Point
	for i := 0; i < 10; i++ {
		p = append(p, rcj.Point{X: float64(i) * 10, Y: 0, ID: int64(i)})
		q = append(q, rcj.Point{X: float64(i)*10 + 1 + 0.5*float64(i), Y: 0, ID: int64(i)})
	}
	ixP, err := rcj.BuildIndex(p, rcj.IndexConfig{})
	if err != nil {
		log.Fatal(err)
	}
	defer ixP.Close()
	ixQ, err := rcj.BuildIndex(q, rcj.IndexConfig{})
	if err != nil {
		log.Fatal(err)
	}
	defer ixQ.Close()

	eng := rcj.NewEngine(rcj.EngineConfig{})
	top, _, err := eng.RunCollect(context.Background(), ixQ, ixP, rcj.Query{TopK: 2})
	if err != nil {
		log.Fatal(err)
	}
	for _, pr := range top {
		fmt.Printf("<p%d, q%d> diameter %.1f\n", pr.P.ID, pr.Q.ID, pr.Diameter())
	}
	// Output:
	// <p0, q0> diameter 1.0
	// <p1, q1> diameter 1.5
}

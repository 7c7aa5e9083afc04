package roadnet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/rcj"
)

// lineGraph builds a path graph 0–1–…–(n−1) with unit edges.
func lineGraph(t *testing.T, n int) *Graph {
	t.Helper()
	pos := make([]geom.Point, n)
	for i := range pos {
		pos[i] = geom.Point{X: float64(i)}
	}
	g, err := NewGraph(n, pos)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < n; i++ {
		if err := g.AddEdge(NodeID(i), NodeID(i+1), 1); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestShortestPathLine(t *testing.T) {
	g := lineGraph(t, 10)
	d, path, ok := g.ShortestPath(2, 7, math.Inf(1))
	if !ok || d != 5 {
		t.Fatalf("d=%g ok=%v", d, ok)
	}
	if len(path) != 6 || path[0] != 2 || path[5] != 7 {
		t.Fatalf("path %v", path)
	}
	if _, _, ok := g.ShortestPath(0, 9, 3); ok {
		t.Fatal("bounded search should miss a distance-9 target")
	}
}

func TestDistancesFrom(t *testing.T) {
	g := lineGraph(t, 6)
	d := g.DistancesFromCenter(BallCenter{U: 0, V: 0}, math.Inf(1))
	for i, want := range []float64{0, 1, 2, 3, 4, 5} {
		if d[i] != want {
			t.Fatalf("d[%d]=%g", i, d[i])
		}
	}
	bounded := g.DistancesFromCenter(BallCenter{U: 0, V: 0}, 2)
	if !math.IsInf(bounded[4], 1) {
		t.Fatal("bound ignored")
	}
}

func TestMidpointOnPath(t *testing.T) {
	g := lineGraph(t, 10)
	_, path, _ := g.ShortestPath(1, 5, math.Inf(1)) // length 4
	c := g.midpointOnPath(path, 4)
	// Midpoint at distance 2 from node 1 = exactly node 3 (offset 0 on the
	// 3–4 edge or full on 2–3; either encoding is fine as long as distances
	// work out).
	d := g.DistancesFromCenter(c, 10)
	if math.Abs(d[1]-2) > 1e-9 || math.Abs(d[5]-2) > 1e-9 {
		t.Fatalf("midpoint not equidistant: d1=%g d5=%g", d[1], d[5])
	}
	// Odd total: midpoint mid-edge.
	_, path, _ = g.ShortestPath(0, 3, math.Inf(1)) // length 3
	c = g.midpointOnPath(path, 3)
	d = g.DistancesFromCenter(c, 10)
	if math.Abs(d[0]-1.5) > 1e-9 || math.Abs(d[3]-1.5) > 1e-9 {
		t.Fatalf("mid-edge midpoint wrong: d0=%g d3=%g", d[0], d[3])
	}
}

func TestLineJoinByHand(t *testing.T) {
	// P at nodes {0, 4}, Q at nodes {2, 6} on a unit line.
	// <p0(0), q0(2)>: ball center 1, r 1 → covers nodes 0,1,2 → no other
	// point → valid.
	// <p1(4), q0(2)>: center 3, r 1 → nodes 2..4 → valid.
	// <p1(4), q1(6)>: center 5, r 1 → nodes 4..6 → valid.
	// <p0(0), q1(6)>: center 3, r 3 → covers node 4 (p1) and node 2 (q0) →
	// invalid.
	g := lineGraph(t, 8)
	P := []PointRef{{ID: 0, Node: 0}, {ID: 1, Node: 4}}
	Q := []PointRef{{ID: 0, Node: 2}, {ID: 1, Node: 6}}
	got, stats, err := Join(g, P, Q)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"0|0": true, "1|0": true, "1|1": true}
	if len(got) != len(want) {
		t.Fatalf("got %d pairs: %+v", len(got), got)
	}
	for _, pr := range got {
		k := fmt.Sprintf("%d|%d", pr.P.ID, pr.Q.ID)
		if !want[k] {
			t.Fatalf("unexpected pair %s", k)
		}
		if math.Abs(pr.Radius-pr.Dist/2) > 1e-12 {
			t.Fatalf("radius %g for dist %g", pr.Radius, pr.Dist)
		}
	}
	if stats.Results != int64(len(got)) {
		t.Fatalf("stats results %d", stats.Results)
	}
}

func checkNetJoin(t *testing.T, g *Graph, P, Q []PointRef) {
	t.Helper()
	got, _, err := Join(g, P, Q)
	if err != nil {
		t.Fatal(err)
	}
	want := BruteForce(g, P, Q)
	ws := map[string]bool{}
	for _, p := range want {
		ws[fmt.Sprintf("%d|%d", p.P.ID, p.Q.ID)] = true
	}
	gs := map[string]bool{}
	for _, p := range got {
		k := fmt.Sprintf("%d|%d", p.P.ID, p.Q.ID)
		if gs[k] {
			t.Fatalf("duplicate pair %s", k)
		}
		gs[k] = true
	}
	if len(ws) != len(gs) {
		t.Fatalf("join %d pairs, oracle %d", len(gs), len(ws))
	}
	for k := range ws {
		if !gs[k] {
			t.Fatalf("missing pair %s", k)
		}
	}
}

func TestJoinMatchesOracleOnGrids(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		g := GridNetwork(12, 12, 100, seed)
		P := RandomPointsOnNodes(g, 25, seed*10+1)
		Q := RandomPointsOnNodes(g, 25, seed*10+2)
		checkNetJoin(t, g, P, Q)
	}
}

func TestJoinSharedNodes(t *testing.T) {
	// P and Q points stacked on the same nodes: co-location extremes.
	g := GridNetwork(8, 8, 100, 9)
	P := []PointRef{{ID: 0, Node: 10}, {ID: 1, Node: 10}, {ID: 2, Node: 30}}
	Q := []PointRef{{ID: 0, Node: 10}, {ID: 1, Node: 45}}
	checkNetJoin(t, g, P, Q)
}

func TestJoinDisconnected(t *testing.T) {
	// Two disjoint line components; cross-component pairs cannot form.
	g, err := NewGraph(6, nil)
	if err != nil {
		t.Fatal(err)
	}
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(3, 4, 1)
	g.AddEdge(4, 5, 1)
	P := []PointRef{{ID: 0, Node: 0}, {ID: 1, Node: 3}}
	Q := []PointRef{{ID: 0, Node: 2}, {ID: 1, Node: 5}}
	got, _, err := Join(g, P, Q)
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range got {
		sameComp := (pr.P.Node <= 2) == (pr.Q.Node <= 2)
		if !sameComp {
			t.Fatalf("cross-component pair %+v", pr)
		}
	}
	checkNetJoin(t, g, P, Q)
}

func TestFilterPrunes(t *testing.T) {
	// With many P points the filter must return far fewer candidates than
	// |P| for each q.
	g := GridNetwork(15, 15, 100, 3)
	P := RandomPointsOnNodes(g, 100, 5)
	Q := RandomPointsOnNodes(g, 20, 6)
	_, stats, err := Join(g, P, Q)
	if err != nil {
		t.Fatal(err)
	}
	perQ := float64(stats.Candidates) / 20
	if perQ > 30 {
		t.Errorf("filter admits %.1f candidates per query from |P|=100 — pruning ineffective", perQ)
	}
}

func TestGridNetworkConnected(t *testing.T) {
	g := GridNetwork(10, 14, 100, 7)
	d := g.DistancesFromCenter(BallCenter{U: 0, V: 0}, math.Inf(1))
	for i, dv := range d {
		if math.IsInf(dv, 1) {
			t.Fatalf("node %d unreachable — generator disconnected the grid", i)
		}
	}
	if g.NumNodes() != 140 {
		t.Fatalf("nodes %d", g.NumNodes())
	}
}

func TestEmbeddingInterpolates(t *testing.T) {
	g := lineGraph(t, 3)
	c := BallCenter{U: 0, V: 1, OffU: 0.5}
	pt := g.Embedding(c)
	if math.Abs(pt.X-0.5) > 1e-12 {
		t.Fatalf("embedding %+v", pt)
	}
	node := g.Embedding(BallCenter{U: 2, V: 2})
	if node.X != 2 {
		t.Fatalf("node embedding %+v", node)
	}
}

func TestRandomPointsOnNodesDistinct(t *testing.T) {
	g := GridNetwork(5, 5, 100, 1)
	pts := RandomPointsOnNodes(g, 25, 2)
	seen := map[NodeID]bool{}
	for _, p := range pts {
		if seen[p.Node] {
			t.Fatalf("node %d reused", p.Node)
		}
		seen[p.Node] = true
	}
}

func TestJoinRandomLines(t *testing.T) {
	// 1D networks sharpen boundary cases (exact ties everywhere).
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 5; trial++ {
		g := lineGraph(t, 30)
		var P, Q []PointRef
		for i := 0; i < 8; i++ {
			P = append(P, PointRef{ID: int64(i), Node: NodeID(rng.Intn(30))})
			Q = append(Q, PointRef{ID: int64(i), Node: NodeID(rng.Intn(30))})
		}
		checkNetJoin(t, g, P, Q)
	}
}

func TestGraphValidation(t *testing.T) {
	if _, err := NewGraph(3, make([]geom.Point, 2)); err == nil {
		t.Fatal("2 positions for 3 nodes accepted")
	}
	g := lineGraph(t, 4)
	if err := g.AddEdge(0, 99, 1); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	if err := g.AddEdge(0, 1, -5); err == nil {
		t.Fatal("negative weight accepted")
	}
	if err := g.AddEdge(0, 1, math.NaN()); err == nil {
		t.Fatal("NaN weight accepted")
	}
}

// TestJoinContextStreamsAndCancels pins the two things JoinContext adds to
// Join: onPair receives exactly Join's pairs in Join's order while nothing
// is accumulated, and a cancelled context stops the outer loop with its
// error.
func TestJoinContextStreamsAndCancels(t *testing.T) {
	g := GridNetwork(12, 12, 100, 2)
	P := RandomPointsOnNodes(g, 30, 21)
	Q := RandomPointsOnNodes(g, 30, 22)
	want, wantStats, err := Join(g, P, Q)
	if err != nil || len(want) == 0 {
		t.Fatalf("Join: %d pairs, %v", len(want), err)
	}
	var streamed []Pair
	got, stats, err := JoinContext(context.Background(), g, P, Q, func(p Pair) { streamed = append(streamed, p) })
	if err != nil || got != nil || stats != wantStats {
		t.Fatalf("streaming JoinContext returned %d pairs, stats %+v (want %+v), %v", len(got), stats, wantStats, err)
	}
	if len(streamed) != len(want) {
		t.Fatalf("streamed %d pairs, want %d", len(streamed), len(want))
	}
	for i := range want {
		if streamed[i] != want[i] {
			t.Fatalf("streamed pair %d is %+v, want %+v", i, streamed[i], want[i])
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := JoinContext(ctx, g, P, Q, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled JoinContext returned %v", err)
	}
}

// TestStraightRoadTie is the one exact tie between the road-network join
// and the planar one: on a single straight road the network ball of a pair
// and its ring cover the same points — those between the two — so both
// joins reduce to "consecutive points of different colour". Integer
// coordinates keep every distance exact; the road runs along an axis, where
// the Manhattan ring coincides too.
func TestStraightRoadTie(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const n = 400
	pos := make([]geom.Point, n)
	x := 0.0
	for i := range pos {
		x += float64(1 + rng.Intn(9))
		pos[i] = geom.Point{X: x, Y: 7}
	}
	g, err := NewGraph(n, pos)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < n; i++ {
		if err := g.AddEdge(NodeID(i), NodeID(i+1), pos[i+1].X-pos[i].X); err != nil {
			t.Fatal(err)
		}
	}
	// One point on every third node or so, coloured at random: distinct
	// nodes, so no two points coincide.
	type colored struct {
		ref PointRef
		inP bool
	}
	var pts []colored
	var P, Q []PointRef
	var planarP, planarQ []rcj.Point
	for node := 0; node < n; node++ {
		if rng.Intn(3) != 0 {
			continue
		}
		ref := PointRef{ID: int64(node), Node: NodeID(node)}
		pt := rcj.Point{X: pos[node].X, Y: pos[node].Y, ID: ref.ID}
		inP := rng.Intn(2) == 0
		if inP {
			P, planarP = append(P, ref), append(planarP, pt)
		} else {
			Q, planarQ = append(Q, ref), append(planarQ, pt)
		}
		pts = append(pts, colored{ref, inP}) // already in road order
	}
	want := map[[2]int64]bool{}
	for i := 0; i+1 < len(pts); i++ {
		a, b := pts[i], pts[i+1]
		if a.inP != b.inP {
			if !a.inP {
				a, b = b, a
			}
			want[[2]int64{a.ref.ID, b.ref.ID}] = true
		}
	}
	if len(want) < 20 {
		t.Fatalf("only %d consecutive bichromatic pairs", len(want))
	}

	type placed struct {
		key    [2]int64
		x, rad float64
	}
	byKey := func(ps []placed) []placed {
		sort.Slice(ps, func(i, j int) bool {
			return ps[i].key[0] < ps[j].key[0] || ps[i].key[0] == ps[j].key[0] && ps[i].key[1] < ps[j].key[1]
		})
		return ps
	}
	netPairs, _, err := Join(g, P, Q)
	if err != nil {
		t.Fatal(err)
	}
	var network []placed
	for _, pr := range netPairs {
		network = append(network, placed{[2]int64{pr.P.ID, pr.Q.ID}, g.Embedding(pr.Center).X, pr.Radius})
	}
	byKey(network)
	if len(network) != len(want) {
		t.Fatalf("network join has %d pairs, the road has %d consecutive bichromatic ones", len(network), len(want))
	}
	for _, pl := range network {
		if !want[pl.key] {
			t.Fatalf("network join pair %v is not consecutive on the road", pl.key)
		}
	}

	eng := rcj.NewEngine(rcj.EngineConfig{})
	ixP, err := eng.BuildIndex(planarP, rcj.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ixP.Close()
	ixQ, err := eng.BuildIndex(planarQ, rcj.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ixQ.Close()
	for _, metric := range []rcj.Metric{rcj.L2, rcj.L1} {
		pairs, _, err := eng.RunCollect(context.Background(), ixQ, ixP, rcj.Query{Metric: metric})
		if err != nil {
			t.Fatal(err)
		}
		var planar []placed
		for _, pr := range pairs {
			planar = append(planar, placed{[2]int64{pr.P.ID, pr.Q.ID}, pr.Center.X, pr.Radius})
		}
		byKey(planar)
		if len(planar) != len(network) {
			t.Fatalf("%v planar join has %d pairs, network join %d", metric, len(planar), len(network))
		}
		for i := range network {
			if planar[i] != network[i] {
				t.Fatalf("%v planar join places %+v where the network join places %+v", metric, planar[i], network[i])
			}
		}
	}
}

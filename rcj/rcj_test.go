package rcj

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/buffer"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// testEng runs the joins of tests whose indexes are self-contained
// (BuildIndex): the Run methods keep no engine state, so one engine serves
// them all.
var (
	testEng = NewEngine(EngineConfig{})
	bg      = context.Background()
)

func randomPoints(rng *rand.Rand, n int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000, ID: int64(i)}
	}
	return pts
}

func mustIndex(t *testing.T, pts []Point, cfg IndexConfig) *Index {
	t.Helper()
	ix, err := BuildIndex(pts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	return ix
}

// insertBuiltIndex assembles an index whose tree grew by one-by-one R*
// insertions — BuildIndex only bulk-loads — so tests can hold the join to the
// same answer on a differently packed tree.
func insertBuiltIndex(t *testing.T, pts []Point) *Index {
	t.Helper()
	pager := storage.NewMemPager(storage.DefaultPageSize)
	pool := buffer.NewPool(-1)
	tree, err := rtree.New(pager, pool, rtree.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if err := tree.Insert(p.entry().P, p.ID); err != nil {
			t.Fatal(err)
		}
	}
	ix := &Index{tree: tree, pager: pager, pool: pool, pts: len(pts)}
	t.Cleanup(func() { ix.Close() })
	return ix
}

func TestBuildIndexValidation(t *testing.T) {
	if _, err := BuildIndex(nil, IndexConfig{}); err == nil {
		t.Fatal("empty input accepted")
	}
	dup := []Point{{X: 1, Y: 1, ID: 7}, {X: 2, Y: 2, ID: 7}}
	if _, err := BuildIndex(dup, IndexConfig{}); err == nil {
		t.Fatal("duplicate IDs accepted")
	}
}

func TestJoinBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ps := randomPoints(rng, 150)
	qs := randomPoints(rng, 120)
	p := mustIndex(t, ps, IndexConfig{})
	q := mustIndex(t, qs, IndexConfig{})

	pairs, stats, err := testEng.RunCollect(bg, q, p, Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) == 0 {
		t.Fatal("no pairs at all")
	}
	if stats.Results != int64(len(pairs)) {
		t.Fatalf("stats.Results=%d len=%d", stats.Results, len(pairs))
	}
	if stats.NodeAccesses == 0 {
		t.Fatalf("node-access counter empty: %+v", stats)
	}
	// PageFaults may be zero here: the default buffer is unbounded and the
	// build warmed it; the bounded-buffer test below checks fault counting.
	// Center and radius invariants: equidistant from both endpoints.
	for _, pr := range pairs {
		dp := hypot(pr.Center.X-pr.P.X, pr.Center.Y-pr.P.Y)
		dq := hypot(pr.Center.X-pr.Q.X, pr.Center.Y-pr.Q.Y)
		if abs(dp-pr.Radius) > 1e-6 || abs(dq-pr.Radius) > 1e-6 {
			t.Fatalf("center not equidistant: %+v (dp=%g dq=%g r=%g)", pr, dp, dq, pr.Radius)
		}
	}
	// Every algorithm yields the same result set.
	base := keySet(pairs)
	for _, alg := range []Algorithm{INJ, OBJ} {
		got, _, err := testEng.RunCollect(bg, q, p, Query{Algorithm: alg, ForceAlgorithm: true})
		if err != nil {
			t.Fatal(err)
		}
		if !sameKeys(base, keySet(got)) {
			t.Fatalf("%v disagrees with default", alg)
		}
	}
}

func keySet(pairs []Pair) map[[2]int64]bool {
	m := make(map[[2]int64]bool, len(pairs))
	for _, p := range pairs {
		m[[2]int64{p.P.ID, p.Q.ID}] = true
	}
	return m
}

func sameKeys(a, b map[[2]int64]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func hypot(a, b float64) float64 {
	return math.Hypot(a, b)
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func TestSortByDiameter(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := mustIndex(t, randomPoints(rng, 100), IndexConfig{})
	q := mustIndex(t, randomPoints(rng, 100), IndexConfig{})
	pairs, _, err := testEng.RunCollect(bg, q, p, Query{SortByDiameter: true})
	if err != nil {
		t.Fatal(err)
	}
	if !sort.SliceIsSorted(pairs, func(i, j int) bool { return pairs[i].Radius < pairs[j].Radius }) {
		t.Fatal("pairs not sorted by diameter")
	}
	if d := pairs[0].Diameter(); d != 2*pairs[0].Radius {
		t.Fatalf("diameter %g", d)
	}
}

func TestRankPairsByWeight(t *testing.T) {
	pairs := []Pair{
		{P: Point{ID: 1}, Q: Point{ID: 2}, Radius: 5},
		{P: Point{ID: 3}, Q: Point{ID: 4}, Radius: 1},
		{P: Point{ID: 5}, Q: Point{ID: 6}, Radius: 3},
	}
	weights := map[int64]float64{1: 10, 2: 10, 3: 1, 4: 1, 5: 100, 6: 0}
	RankPairsByWeight(pairs, func(p Point) float64 { return weights[p.ID] })
	if pairs[0].P.ID != 5 || pairs[1].P.ID != 1 || pairs[2].P.ID != 3 {
		t.Fatalf("rank order wrong: %+v", pairs)
	}
}

func TestSelfJoinCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ix := mustIndex(t, randomPoints(rng, 120), IndexConfig{})
	pairs, _, err := testEng.RunCollect(bg, ix, ix, Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) == 0 {
		t.Fatal("self join found nothing")
	}
	for _, p := range pairs {
		if p.P.ID >= p.Q.ID {
			t.Fatalf("non-canonical pair %+v", p)
		}
	}
}

func TestStreamingMode(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p := mustIndex(t, randomPoints(rng, 80), IndexConfig{})
	q := mustIndex(t, randomPoints(rng, 80), IndexConfig{})
	collected, _, err := testEng.RunCollect(bg, q, p, Query{})
	if err != nil {
		t.Fatal(err)
	}
	var stats Stats
	streamed, err := Collect(testEng.Run(bg, q, p, Query{Stats: &stats}))
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(collected) || stats.Results != int64(len(streamed)) {
		t.Fatalf("streamed %d, collected %d, stats %d", len(streamed), len(collected), stats.Results)
	}
}

func TestInsertBuildEqualsBulk(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := randomPoints(rng, 200)
	qs := randomPoints(rng, 200)
	bulkP := mustIndex(t, pts, IndexConfig{})
	bulkQ := mustIndex(t, qs, IndexConfig{})
	insP := insertBuiltIndex(t, pts)
	insQ := insertBuiltIndex(t, qs)
	a, _, err := testEng.RunCollect(bg, bulkQ, bulkP, Query{})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := testEng.RunCollect(bg, insQ, insP, Query{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameKeys(keySet(a), keySet(b)) {
		t.Fatal("insert-built and bulk-loaded indexes disagree")
	}
}

func TestBoundedBufferSameResults(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := randomPoints(rng, 300)
	qs := randomPoints(rng, 300)
	tight := mustIndex(t, pts, IndexConfig{BufferPages: 2})
	loose := mustIndex(t, pts, IndexConfig{})
	q := mustIndex(t, qs, IndexConfig{})
	a, statsTight, err := testEng.RunCollect(bg, q, tight, Query{})
	if err != nil {
		t.Fatal(err)
	}
	b, statsLoose, err := testEng.RunCollect(bg, q, loose, Query{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameKeys(keySet(a), keySet(b)) {
		t.Fatal("buffer size changed the result set")
	}
	if statsTight.PageFaults <= statsLoose.PageFaults {
		t.Fatalf("tight buffer should fault more: %d vs %d", statsTight.PageFaults, statsLoose.PageFaults)
	}
}

func TestIndexAccessors(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pts := randomPoints(rng, 50)
	ix := mustIndex(t, pts, IndexConfig{})
	if ix.Len() != 50 {
		t.Fatalf("Len = %d", ix.Len())
	}
	got, err := ix.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 50 {
		t.Fatalf("Points returned %d", len(got))
	}
	nn, err := ix.NearestNeighbor(pts[7].X, pts[7].Y)
	if err != nil {
		t.Fatal(err)
	}
	if nn.ID != pts[7].ID {
		t.Fatalf("NN of a dataset point is itself: got %d", nn.ID)
	}
}

func TestJoinL1Basics(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p := mustIndex(t, randomPoints(rng, 100), IndexConfig{})
	q := mustIndex(t, randomPoints(rng, 100), IndexConfig{})
	pairs, stats, err := testEng.RunCollect(bg, q, p, Query{Metric: L1})
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) == 0 || stats.Results != int64(len(pairs)) {
		t.Fatalf("L1 join: %d pairs, stats %+v", len(pairs), stats)
	}
	for _, pr := range pairs {
		dp := abs(pr.Center.X-pr.P.X) + abs(pr.Center.Y-pr.P.Y)
		dq := abs(pr.Center.X-pr.Q.X) + abs(pr.Center.Y-pr.Q.Y)
		if abs(dp-pr.Radius) > 1e-6 || abs(dq-pr.Radius) > 1e-6 {
			t.Fatalf("L1 center not equidistant: %+v", pr)
		}
	}
}

func TestSelfJoinL1(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	ix := mustIndex(t, randomPoints(rng, 80), IndexConfig{})
	pairs, _, err := testEng.RunCollect(bg, ix, ix, Query{Metric: L1})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		if p.P.ID >= p.Q.ID {
			t.Fatalf("non-canonical L1 self pair %+v", p)
		}
	}
}

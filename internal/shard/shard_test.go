package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/rcj"
)

func randomPoints(rng *rand.Rand, n int, span float64) []rcj.Point {
	pts := make([]rcj.Point, n)
	for i := range pts {
		pts[i] = rcj.Point{X: rng.Float64() * span, Y: rng.Float64() * span, ID: int64(i)}
	}
	return pts
}

func buildTestManifest(t testing.TB, nShards int, self bool) (*Manifest, string) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	p := randomPoints(rng, 300, 1000)
	var q []rcj.Point
	if !self {
		q = randomPoints(rng, 300, 1000)
		for i := range q {
			q[i].ID = int64(1000 + i)
		}
	}
	path := filepath.Join(t.TempDir(), "test.rcjm")
	m, err := Build(path, p, q, BuildConfig{
		Shards: nShards, MaxDiameter: 120, Name: "test",
	})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return m, path
}

func TestManifestRoundTrip(t *testing.T) {
	m, path := buildTestManifest(t, 4, true)
	got, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.GridNX*got.GridNY != 4 || len(got.Shards) != 4 {
		t.Fatalf("grid %dx%d, %d shards", got.GridNX, got.GridNY, len(got.Shards))
	}
	if got.MaxDiameter != m.MaxDiameter || got.Margin != m.Margin || got.Bounds != m.Bounds {
		t.Fatalf("round trip changed globals: %+v vs %+v", got, m)
	}
	for i, sh := range got.Shards {
		if sh != m.Shards[i] {
			t.Fatalf("shard %d round trip: %+v vs %+v", i, sh, m.Shards[i])
		}
	}
	// Shard files exist and open.
	for _, sh := range got.Shards {
		if sh.Empty() {
			continue
		}
		ix, err := rcj.OpenIndex(ResolveSource(path, sh.P, ""), rcj.IndexConfig{})
		if err != nil {
			t.Fatalf("open shard %d: %v", sh.ID, err)
		}
		if ix.Len() != sh.PCount {
			t.Errorf("shard %d: index holds %d points, manifest says %d", sh.ID, ix.Len(), sh.PCount)
		}
		ix.Close()
	}
}

func TestManifestCorruption(t *testing.T) {
	_, path := buildTestManifest(t, 2, true)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Semantic corruption (content no longer matches the checksum).
	tampered := strings.Replace(string(data), `"max_diameter": 120`, `"max_diameter": 999`, 1)
	if tampered == string(data) {
		t.Fatal("tamper target not found")
	}
	if _, err := Decode([]byte(tampered)); !errors.Is(err, ErrBadChecksum) {
		t.Errorf("tampered manifest: got %v, want ErrBadChecksum", err)
	}

	// Pure reformatting is fine: the checksum is over canonical content.
	reformatted := strings.ReplaceAll(string(data), "\n  ", "\n      ")
	if _, err := Decode([]byte(reformatted)); err != nil {
		t.Errorf("reformatted manifest rejected: %v", err)
	}

	// Unsupported version.
	future := strings.Replace(string(data), `"version": 1`, `"version": 99`, 1)
	if _, err := Decode([]byte(future)); !errors.Is(err, ErrBadVersion) {
		t.Errorf("future version: got %v, want ErrBadVersion", err)
	}

	// Garbage.
	if _, err := Decode([]byte("not json")); !errors.Is(err, ErrBadManifest) {
		t.Errorf("garbage: got %v, want ErrBadManifest", err)
	}

	// A grid whose side product wraps around to the shard count: 2^32 x 2^32
	// cells and no shards, under a correct checksum. It used to decode, and
	// InteriorCuts then indexed past the empty shard list.
	overflow := &Manifest{Version: Version, Name: "overflow", GridNX: 1 << 32, GridNY: 1 << 32, MaxDiameter: 1, Margin: 1}
	if _, err := Decode(stampChecksum(t, overflow)); !errors.Is(err, ErrBadManifest) {
		t.Errorf("overflowing grid: got %v, want ErrBadManifest", err)
	}
}

// stampChecksum encodes m as JSON with a correct checksum and no validation,
// so Decode's structural checks are what judge it.
func stampChecksum(t testing.TB, m *Manifest) []byte {
	t.Helper()
	sum, err := m.checksum()
	if err != nil {
		t.Fatal(err)
	}
	m.Checksum = sum
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// FuzzDecodeManifest throws arbitrary JSON at the manifest reader. Input
// that parses as a manifest is re-stamped with its correct checksum first,
// so the fuzzer reaches Validate instead of stopping at the checksum; then
// neither Decode nor InteriorCuts of an accepted manifest may panic, and an
// accepted manifest has exactly one shard per grid cell.
func FuzzDecodeManifest(f *testing.F) {
	_, path := buildTestManifest(f, 4, false)
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(`{"version":1,"grid_nx":4294967296,"grid_ny":4294967296,"max_diameter":1,"margin":1}`))
	f.Add([]byte(`{"version":1,"grid_nx":2,"grid_ny":1,"max_diameter":1,"margin":1,"shards":[{"id":0,"p":"a"}]}`))
	f.Add([]byte("not json"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var probe Manifest
		if json.Unmarshal(data, &probe) == nil {
			data = stampChecksum(t, &probe)
		}
		got, err := Decode(data)
		if err != nil {
			return
		}
		if len(got.Shards) != got.GridNX*got.GridNY {
			t.Fatalf("accepted %d shards for a %dx%d grid", len(got.Shards), got.GridNX, got.GridNY)
		}
		xs, ys := got.InteriorCuts()
		if len(xs) != got.GridNX-1 || len(ys) != got.GridNY-1 {
			t.Fatalf("interior cuts %d/%d for a %dx%d grid", len(xs), len(ys), got.GridNX, got.GridNY)
		}
	})
}

// TestBuildShapeFromQ pins how Build tells the two manifest shapes apart: a
// nil q is P's self-join, and a non-nil q — even an empty one — is a second
// dataset, here one no shard can pair with.
func TestBuildShapeFromQ(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := randomPoints(rng, 50, 100)
	for _, tc := range []struct {
		name      string
		q         []rcj.Point
		self      bool
		populated bool
	}{
		{"nil q", nil, true, true},
		{"empty q", []rcj.Point{}, false, false},
	} {
		m, err := Build(filepath.Join(t.TempDir(), "shape.rcjm"), p, tc.q, BuildConfig{Shards: 2, MaxDiameter: 10, Name: "shape"})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		populated := false
		for _, sh := range m.Shards {
			populated = populated || !sh.Empty()
		}
		if m.Self != tc.self || populated != tc.populated {
			t.Errorf("%s: Self=%v populated=%v, want %v/%v", tc.name, m.Self, populated, tc.self, tc.populated)
		}
	}
}

// TestBuildPartitionInvariants checks the geometric contract of the build:
// cells tile the bounds, every point lands in every shard whose
// margin-expanded cell contains it, and the margin honors the diameter.
func TestBuildPartitionInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := randomPoints(rng, 500, 2000)
	q := randomPoints(rng, 400, 2000)
	for i := range q {
		q[i].ID = int64(5000 + i)
	}
	path := filepath.Join(t.TempDir(), "inv.rcjm")
	const maxD = 150
	m, err := Build(path, p, q, BuildConfig{Shards: 6, MaxDiameter: maxD, Name: "inv"})
	if err != nil {
		t.Fatal(err)
	}
	if m.Margin < maxD/2 {
		t.Fatalf("margin %g < D/2 = %g", m.Margin, float64(maxD)/2)
	}
	// Cells tile the bounds: shared edges, outer edges exact.
	for id, sh := range m.Shards {
		col, row := id%m.GridNX, id/m.GridNX
		c := sh.Cell
		if col == 0 && c[0] != m.Bounds[0] || row == 0 && c[1] != m.Bounds[1] ||
			col == m.GridNX-1 && c[2] != m.Bounds[2] || row == m.GridNY-1 && c[3] != m.Bounds[3] {
			t.Errorf("shard %d cell %v not flush with bounds %v", id, c, m.Bounds)
		}
		if col > 0 && c[0] != m.Shards[id-1].Cell[2] {
			t.Errorf("shard %d west edge %v != east edge of shard %d", id, c[0], id-1)
		}
		if row > 0 && c[1] != m.Shards[id-m.GridNX].Cell[3] {
			t.Errorf("shard %d south edge %v != north edge of shard %d", id, c[1], id-m.GridNX)
		}
	}
	// Every point is in exactly the shards whose expanded cell contains it.
	for _, sh := range m.Shards {
		reach := sh.Cell.Expand(m.Margin)
		wantP := 0
		for _, pt := range p {
			if reach.Contains(pt.X, pt.Y) {
				wantP++
			}
		}
		if sh.PCount != wantP && !sh.Empty() {
			t.Errorf("shard %d: PCount %d, want %d margin residents", sh.ID, sh.PCount, wantP)
		}
	}
	xs, ys := m.InteriorCuts()
	if len(xs) != m.GridNX-1 || len(ys) != m.GridNY-1 {
		t.Errorf("interior cuts %d/%d for grid %dx%d", len(xs), len(ys), m.GridNX, m.GridNY)
	}
}

// TestShardedJoinEquivalence is the library-level half of the shard
// correctness story: for each shard, running the join over the shard
// indexes restricted to the shard's cell (Region) under the manifest's
// diameter bound, then unioning across shards with boundary dedup, must
// reproduce the unsharded join exactly — including pairs whose two points
// straddle a cell boundary and pairs invalidated only by a witness from a
// neighboring cell.
func TestShardedJoinEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const maxD = 180
	for _, tc := range []struct {
		name   string
		self   bool
		shards int
	}{
		{"pair-4", false, 4},
		{"self-6", true, 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := randomPoints(rng, 400, 1500)
			var q []rcj.Point
			if !tc.self {
				q = randomPoints(rng, 400, 1500)
				for i := range q {
					q[i].ID = int64(9000 + i)
				}
			}
			path := filepath.Join(t.TempDir(), "eq.rcjm")
			m, err := Build(path, p, q, BuildConfig{
				Shards: tc.shards, MaxDiameter: maxD, Name: tc.name,
			})
			if err != nil {
				t.Fatal(err)
			}

			eng := rcj.NewEngine(rcj.EngineConfig{})
			qry := rcj.Query{MaxDiameter: maxD}
			want := unshardedPairs(t, eng, p, q, tc.self, qry)

			got := map[string]bool{}
			for _, sh := range m.Shards {
				if sh.Empty() {
					continue
				}
				cell := sh.Cell
				sq := qry
				sq.Region = &rcj.Rect{MinX: cell[0], MinY: cell[1], MaxX: cell[2], MaxY: cell[3]}
				pix, err := eng.OpenIndex(ResolveSource(path, sh.P, ""), rcj.IndexConfig{})
				if err != nil {
					t.Fatal(err)
				}
				qix := pix
				if !tc.self {
					if qix, err = eng.OpenIndex(ResolveSource(path, sh.Q, ""), rcj.IndexConfig{}); err != nil {
						t.Fatal(err)
					}
					defer qix.Close()
				}
				// The outer input is Q, the inner P (server convention).
				pairs, _, err := eng.RunCollect(context.Background(), qix, pix, sq)
				if err != nil {
					t.Fatalf("shard %d join: %v", sh.ID, err)
				}
				for _, pr := range pairs {
					got[pairKey(pr)] = true // union with dedup: boundary-centered pairs arrive from 2+ shards
				}
				pix.Close()
			}
			if len(got) != len(want) {
				t.Errorf("sharded union has %d pairs, unsharded %d", len(got), len(want))
			}
			for k := range want {
				if !got[k] {
					t.Errorf("pair %s missing from sharded union", k)
				}
			}
			for k := range got {
				if !want[k] {
					t.Errorf("pair %s in sharded union but not in unsharded join", k)
				}
			}
		})
	}
}

func unshardedPairs(t *testing.T, eng *rcj.Engine, p, q []rcj.Point, self bool, qry rcj.Query) map[string]bool {
	t.Helper()
	pix, err := eng.BuildIndex(p, rcj.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer pix.Close()
	qix := pix
	if !self {
		if qix, err = eng.BuildIndex(q, rcj.IndexConfig{}); err != nil {
			t.Fatal(err)
		}
		defer qix.Close()
	}
	pairs, _, err := eng.RunCollect(context.Background(), qix, pix, qry)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, pr := range pairs {
		out[pairKey(pr)] = true
	}
	return out
}

func pairKey(pr rcj.Pair) string {
	return fmt.Sprintf("%d|%d", pr.P.ID, pr.Q.ID)
}

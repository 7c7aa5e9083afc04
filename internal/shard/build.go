package shard

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"strings"

	"repro/rcj"
)

// marginSlack widens the overlap margin outward of the exact D/2 bound: a
// ring's owner is decided by its computed centre and its radius is a
// rounded half-distance, so a witness of an owned ring may sit a rounding
// sliver beyond D/2 of the cell. The relative term covers the radius; the
// margin's absolute term, at the rounding scale of the largest coordinate,
// covers the centre and the cell's expansion, which round relative to the
// coordinates.
const marginSlack = 1 + 1e-9

// BuildConfig tunes a shard build.
type BuildConfig struct {
	// Shards is the number of grid cells (= shard indexes per dataset).
	Shards int
	// MaxDiameter is the deployment's serving contract: the largest ring
	// diameter queries may use. It derives the overlap margin (D/2, the max
	// ring radius), so it must be > 0 — an unbounded ring query cannot be
	// sharded, because a pair's witnesses could then live anywhere.
	MaxDiameter float64
	// Name labels the manifest.
	Name string
}

// Build partitions the dataset(s) into cfg.Shards grid cells, writes one
// `.rcjx` index per cell and side next to manifestPath (named
// `<stem>.s<id>.p.rcjx` / `.q.rcjx`), and writes + returns the manifest.
// A nil q builds a single-dataset manifest, served as P's self-join; a
// non-nil q, even an empty one, is the second dataset of a pair manifest.
// Every point is duplicated into each cell it lies within the overlap
// margin of, so each shard can answer its owned pairs (center ∈ cell,
// diameter ≤ MaxDiameter) without seeing any other shard.
func Build(manifestPath string, p, q []rcj.Point, cfg BuildConfig) (*Manifest, error) {
	if cfg.Shards <= 0 {
		return nil, fmt.Errorf("shard: invalid shard count %d", cfg.Shards)
	}
	if cfg.MaxDiameter <= 0 {
		return nil, errors.New("shard: MaxDiameter must be > 0 (the sharded deployment's largest serveable ring diameter)")
	}
	self := q == nil
	if len(p) == 0 {
		return nil, errors.New("shard: no points to partition")
	}
	bounds := pointBounds(append(append([]rcj.Point{}, p...), q...))
	nx, ny := gridShape(cfg.Shards, bounds)
	margin := cfg.MaxDiameter/2*marginSlack + 0x1p-40*max(-bounds[0], -bounds[1], bounds[2], bounds[3])

	m := &Manifest{
		Version:     Version,
		Name:        cfg.Name,
		Self:        self,
		Bounds:      bounds,
		GridNX:      nx,
		GridNY:      ny,
		MaxDiameter: cfg.MaxDiameter,
		Margin:      margin,
	}

	dir := filepath.Dir(manifestPath)
	stem := strings.TrimSuffix(filepath.Base(manifestPath), Ext)
	for id := 0; id < nx*ny; id++ {
		sh := Shard{ID: id, Cell: cellRect(bounds, nx, ny, id)}
		reach := sh.Cell.Expand(margin)
		psub := selectPoints(p, reach)
		qsub := selectPoints(q, reach)
		sh.PCount, sh.QCount = len(psub), len(qsub)
		// A shard with an empty input can own no pairs (every owned pair's
		// endpoints lie within the margin of its cell, so they would be in
		// the subsets): leave it file-less, the router never contacts it.
		populated := len(psub) > 0 && (self || len(qsub) > 0)
		if populated {
			sh.P = fmt.Sprintf("%s.s%d.p.rcjx", stem, id)
			if err := saveShardIndex(filepath.Join(dir, sh.P), psub); err != nil {
				return nil, fmt.Errorf("shard %d: %w", id, err)
			}
			if !self {
				sh.Q = fmt.Sprintf("%s.s%d.q.rcjx", stem, id)
				if err := saveShardIndex(filepath.Join(dir, sh.Q), qsub); err != nil {
					return nil, fmt.Errorf("shard %d: %w", id, err)
				}
			}
		} else {
			sh.PCount, sh.QCount = 0, 0
		}
		m.Shards = append(m.Shards, sh)
	}
	if err := m.Save(manifestPath); err != nil {
		return nil, err
	}
	return m, nil
}

// saveShardIndex builds and persists one shard-side index.
func saveShardIndex(path string, pts []rcj.Point) error {
	ix, err := rcj.BuildIndex(pts, rcj.IndexConfig{})
	if err != nil {
		return err
	}
	defer ix.Close()
	return ix.Save(path)
}

// pointBounds returns the MBR of the points.
func pointBounds(pts []rcj.Point) Rect {
	b := Rect{math.Inf(1), math.Inf(1), math.Inf(-1), math.Inf(-1)}
	for _, pt := range pts {
		b[0] = min(b[0], pt.X)
		b[1] = min(b[1], pt.Y)
		b[2] = max(b[2], pt.X)
		b[3] = max(b[3], pt.Y)
	}
	return b
}

// gridShape factors n into nx × ny cells whose aspect ratio over the data
// bounds is as square as possible (square cells keep the overlap-margin
// duplication low and Region fan-outs tight).
func gridShape(n int, b Rect) (nx, ny int) {
	w, h := b[2]-b[0], b[3]-b[1]
	best := math.Inf(1)
	nx, ny = n, 1
	for a := 1; a <= n; a++ {
		if n%a != 0 {
			continue
		}
		cw, ch := w/float64(a), h/float64(n/a)
		// Cost: how far the cell is from square; degenerate extents fall
		// back to preferring the most balanced factor pair.
		cost := math.Abs(math.Log(cw / ch)) // NaN/Inf-safe below
		if !(cost < math.Inf(1)) {
			cost = math.Abs(math.Log(float64(a) / float64(n/a)))
		}
		if cost < best {
			best = cost
			nx, ny = a, n/a
		}
	}
	return nx, ny
}

// cellRect returns cell id's closed rectangle in the row-major grid. Edge
// coordinates are shared bit-exactly between adjacent cells (both computed
// by this interpolation), and the outer edges are exactly the bounds.
func cellRect(b Rect, nx, ny, id int) Rect {
	col, row := id%nx, id/nx
	return Rect{
		gridCut(b[0], b[2], col, nx),
		gridCut(b[1], b[3], row, ny),
		gridCut(b[0], b[2], col+1, nx),
		gridCut(b[1], b[3], row+1, ny),
	}
}

// gridCut interpolates cut i of n between lo and hi, hitting both ends
// exactly.
func gridCut(lo, hi float64, i, n int) float64 {
	switch i {
	case 0:
		return lo
	case n:
		return hi
	}
	return lo + (hi-lo)*float64(i)/float64(n)
}

// selectPoints returns the points inside the closed rectangle.
func selectPoints(pts []rcj.Point, r Rect) []rcj.Point {
	var out []rcj.Point
	for _, pt := range pts {
		if r.Contains(pt.X, pt.Y) {
			out = append(out, pt)
		}
	}
	return out
}

// IndexName is the registry name a worker loads shard id's side index
// under ("s3.p", "s3.q") — the names the router addresses sub-queries to.
func IndexName(id int, side string) string {
	return fmt.Sprintf("s%d.%s", id, side)
}

// ResolveSource turns a manifest shard source into something OpenIndex can
// open: URLs and absolute paths pass through; relative paths resolve
// against base when set (joined with "/" — base is typically an http(s)
// prefix for shards served from object storage), else against the manifest
// file's directory.
func ResolveSource(manifestPath, src, base string) string {
	if src == "" || rcj.IsIndexURL(src) || filepath.IsAbs(src) {
		return src
	}
	if base != "" {
		return strings.TrimSuffix(base, "/") + "/" + src
	}
	return filepath.Join(filepath.Dir(manifestPath), src)
}

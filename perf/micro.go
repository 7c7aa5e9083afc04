package main

import (
	"math/rand"
	"time"

	"repro/internal/geom"
	"repro/internal/pagecodec"
	"repro/internal/rtree"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/workload"
	"repro/rcj"
)

// Unit costs of the kernels, measured by calling the layer's public
// functions on seed-derived inputs. They bound what a kernel change can
// save: a cheaper PrunesRect saves at most its count times the difference.

// sink keeps the compiler from discarding the measured calls.
var sink int

// perCall times fn, which makes calls calls, until about 20 ms have passed
// and returns nanoseconds per call.
func perCall(calls int, fn func()) float64 {
	fn() // warm caches and the branch predictor
	var (
		n     int
		start = time.Now()
	)
	for time.Since(start) < 20*time.Millisecond {
		fn()
		n++
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n*calls)
}

// microGeom prices the three pruning kernels on a 20-pruner set around a
// query point, probed with rectangles and points near it.
func microGeom(seed int64, m map[string]float64) {
	rng := rand.New(rand.NewSource(seed*17 + 1))
	near := func(c geom.Point, r float64) geom.Point {
		return geom.Point{X: c.X + (rng.Float64()-0.5)*r, Y: c.Y + (rng.Float64()-0.5)*r}
	}
	q := geom.Point{X: workload.Domain / 2, Y: workload.Domain / 2}
	var set geom.PrunerSet
	for i := 0; i < 20; i++ {
		set.Add(q, near(q, 400))
	}
	const n = 1024
	rects := make([]geom.Rect, n)
	pts := make([]geom.Point, n)
	circles := make([]geom.Circle, n)
	for i := range rects {
		c := near(q, 600)
		rects[i] = geom.Rect{MinX: c.X - 20, MinY: c.Y - 20, MaxX: c.X + 20, MaxY: c.Y + 20}
		pts[i] = near(q, 600)
		circles[i] = geom.EnclosingCircle(near(q, 300), near(q, 300))
	}
	m["geom.prunes_rect_ns"] = perCall(n, func() {
		for _, r := range rects {
			if set.PrunesRect(r) {
				sink++
			}
		}
	})
	m["geom.prunes_point_ns"] = perCall(n, func() {
		for _, p := range pts {
			if set.PrunesPoint(p) {
				sink++
			}
		}
	})
	m["geom.circle_covers_ns"] = perCall(n, func() {
		for i, c := range circles {
			if c.Covers(pts[i]) {
				sink++
			}
		}
	})
}

// microDecode prices node decode and packed-page decode on the pages of one
// saved index.
func microDecode(path string, m map[string]float64) error {
	pager, sb, err := storage.OpenIndexFile(path, storage.BackendMem)
	if err != nil {
		return err
	}
	defer pager.Close()
	n := min(sb.NumPages, 512)
	pages := make([][]byte, n)
	blobs := make([][]byte, n)
	for i := range pages {
		pages[i] = make([]byte, sb.PageSize)
		if err := pager.ReadPage(storage.PageID(i), pages[i]); err != nil {
			return err
		}
		blobs[i] = pagecodec.AppendPage(nil, pages[i])
	}
	m["rtree.decode_node_ns"] = perCall(n, func() {
		for _, pg := range pages {
			if nd, err := rtree.DecodeNode(pg); err == nil {
				sink += nd.Len()
			}
		}
	})
	scratch := make([]byte, sb.PageSize)
	m["pagecodec.decode_ns_per_page"] = perCall(n, func() {
		for _, b := range blobs {
			if pagecodec.DecodePage(scratch, b) == nil {
				sink++
			}
		}
	})
	return nil
}

// microEncode prices the NDJSON row encoder.
func microEncode(seed int64, m map[string]float64) {
	rng := rand.New(rand.NewSource(seed*19 + 3))
	const n = 1024
	pairs := make([]rcj.Pair, n)
	for i := range pairs {
		pairs[i] = rcj.Pair{
			P:      rcj.Point{ID: rng.Int63n(1 << 20)},
			Q:      rcj.Point{ID: rng.Int63n(1 << 20)},
			Center: rcj.Point{X: rng.Float64() * workload.Domain, Y: rng.Float64() * workload.Domain},
			Radius: rng.Float64() * 100,
		}
	}
	buf := make([]byte, 0, 256)
	m["server.encode_ns_per_pair"] = perCall(n, func() {
		for _, pr := range pairs {
			buf = server.AppendPairNDJSON(buf[:0], pr)
			sink += len(buf)
		}
	})
}

// microResolve prices the planner: Query.Resolve on the operations of a
// pass, microseconds per call.
func microResolve(ops []op, ixs map[string]*rcj.Index) float64 {
	var qs []op
	for _, o := range ops {
		if o.class != classWrite {
			qs = append(qs, o)
		}
	}
	if len(qs) == 0 {
		return 0
	}
	return perCall(len(qs), func() {
		for _, o := range qs {
			p := ixs[o.p]
			q := p
			if !o.self() {
				q = ixs[o.q]
			}
			_, dec := o.qry.Resolve(q, p, o.self())
			sink += dec.Parallelism
		}
	}) / 1e3
}

package sched

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rtree"
	"repro/internal/workload"
	"repro/rcj"
)

// mixOp is one query of the client mix: the join (q, p, qry), q == p being
// the self-join.
type mixOp struct {
	q, p *rcj.Index
	qry  rcj.Query
}

// clientMix builds the embedded benchmark's query mix on one engine: a
// G4k x U4k full join, a G4k self-join, a G20k x U20k top-10, 8 windows of
// side 400-800 and 12 windows bounded to a diameter of 60-140, all windows
// centred on U20k points at fixed seeds.
func clientMix(b *testing.B, eng *rcj.Engine) []mixOp {
	b.Helper()
	build := func(pts []rtree.PointEntry) *rcj.Index {
		rp := make([]rcj.Point, len(pts))
		for i, e := range pts {
			rp[i] = rcj.Point{X: e.P.X, Y: e.P.Y, ID: e.ID}
		}
		ix, err := eng.BuildIndex(rp, rcj.IndexConfig{})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { ix.Close() })
		return ix
	}
	u20pts := workload.Uniform(20000, 1002)
	u4 := build(workload.Uniform(4000, 1000))
	g4 := build(workload.GaussianClusters(4000, 10, 1000, 1001))
	u20 := build(u20pts)
	g20 := build(workload.GaussianClusters(20000, 10, 1000, 1003))
	mix := []mixOp{
		{q: u4, p: g4},
		{q: g4, p: g4},
		{q: u20, p: g20, qry: rcj.Query{TopK: 10}},
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 20; i++ {
		c := u20pts[rng.Intn(len(u20pts))].P
		h := (400 + 400*rng.Float64()) / 2
		qry := rcj.Query{Region: &rcj.Rect{
			MinX: math.Max(0, c.X-h), MinY: math.Max(0, c.Y-h),
			MaxX: math.Min(workload.Domain, c.X+h), MaxY: math.Min(workload.Domain, c.Y+h),
		}}
		if i >= 8 {
			qry.MaxDiameter = 60 + 80*rng.Float64()
		}
		mix = append(mix, mixOp{q: u20, p: g20, qry: qry})
	}
	return mix
}

// BenchmarkSchedulerClients is the serving tier's concurrency row: 2, 4 and
// 8 closed-loop clients share one Scheduler at rcjd's defaults
// (MaxConcurrent 2, MaxQueue 16, QueueTimeout 5 s, a 4096-page pool), each
// cycling through clientMix in an order of its own. An op is one drained
// query. It reports ops/s, the p95 latency in ms and the node accesses per
// op from the scheduler's aggregate. A proposal to share work between
// concurrent requests has to beat this row. Run it at a fixed count, e.g.
//
//	go test -run '^$' -bench SchedulerClients -benchtime 400x ./internal/sched
func BenchmarkSchedulerClients(b *testing.B) {
	eng := rcj.NewEngine(rcj.EngineConfig{BufferPages: 4096})
	mix := clientMix(b, eng)
	for _, clients := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			s := New(eng, Config{MaxConcurrent: 2, MaxQueue: 16, QueueTimeout: 5 * time.Second})
			var next atomic.Int64
			lat := make([][]time.Duration, clients)
			var wg sync.WaitGroup
			b.ResetTimer()
			start := time.Now()
			for c := range clients {
				wg.Add(1)
				go func() {
					defer wg.Done()
					order := rand.New(rand.NewSource(int64(c) + 1)).Perm(len(mix))
					for i := 0; next.Add(1) <= int64(b.N); i++ {
						m := mix[order[i%len(order)]]
						t0 := time.Now()
						seq, err := s.Run(context.Background(), m.q, m.p, m.qry, nil)
						if err == nil {
							for _, err = range seq {
								if err != nil {
									break
								}
							}
						}
						if err != nil {
							b.Error(err)
							return
						}
						lat[c] = append(lat[c], time.Since(t0))
					}
				}()
			}
			wg.Wait()
			elapsed := time.Since(start)
			b.StopTimer()
			all := slices.Concat(lat...)
			if len(all) == 0 {
				return
			}
			slices.Sort(all)
			p95 := all[min(len(all)-1, len(all)*95/100)]
			b.ReportMetric(float64(len(all))/elapsed.Seconds(), "ops/s")
			b.ReportMetric(float64(p95.Microseconds())/1e3, "p95_ms")
			b.ReportMetric(float64(s.Snapshot().BufferAccesses)/float64(len(all)), "accesses/op")
		})
	}
}

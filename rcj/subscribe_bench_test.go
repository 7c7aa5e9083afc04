package rcj

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/workload"
)

// BenchmarkSubscribeBatch measures what one mutation batch costs a live
// subscriber: a live 20k-point uniform P joined with a static 20k-point
// uniform Q, one batch per op, timed from ApplyBatch to the batch's
// EventSync. events/op counts every event the batch produced, the sync
// included.
func BenchmarkSubscribeBatch(b *testing.B) {
	for _, bc := range []struct {
		name string
		del  int
	}{{"insert256", 0}, {"insert256_delete256", 256}} {
		b.Run(bc.name, func(b *testing.B) {
			eng := NewEngine(EngineConfig{})
			uniform := func(n int, seed int64) []Point {
				pts := make([]Point, n)
				for i, e := range workload.Uniform(n, seed) {
					pts[i] = Point{X: e.P.X, Y: e.P.Y, ID: e.ID}
				}
				return pts
			}
			q, err := eng.BuildIndex(uniform(20000, 2), IndexConfig{})
			if err != nil {
				b.Fatal(err)
			}
			defer q.Close()
			p, err := eng.NewMutableIndex(uniform(20000, 1), MutableConfig{CompactEvery: -1})
			if err != nil {
				b.Fatal(err)
			}
			defer p.Close()
			sub, err := SubscribeLive(context.Background(), q, p, 1024)
			if err != nil {
				b.Fatal(err)
			}
			defer sub.Close()
			untilSync := func() int {
				n := 0
				for ev := range sub.C {
					n++
					if ev.Type == EventSync {
						return n
					}
				}
				b.Fatalf("stream ended: %v", sub.Err())
				return 0
			}
			untilSync() // the initial replay

			rng := rand.New(rand.NewSource(3))
			alive := make([]int64, 20000)
			for i := range alive {
				alive[i] = int64(i)
			}
			nextID := int64(1_000_000)
			events := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ins := make([]Point, 256)
				for j := range ins {
					ins[j] = Point{X: rng.Float64() * workload.Domain, Y: rng.Float64() * workload.Domain, ID: nextID}
					nextID++
				}
				del := make([]int64, bc.del)
				for j := range del {
					k := rng.Intn(len(alive))
					del[j] = alive[k]
					alive[k] = alive[len(alive)-1]
					alive = alive[:len(alive)-1]
				}
				if _, err := p.ApplyBatch(ins, del); err != nil {
					b.Fatal(err)
				}
				events += untilSync()
				for _, pt := range ins {
					alive = append(alive, pt.ID)
				}
			}
			b.ReportMetric(float64(events)/float64(b.N), "events/op")
		})
	}
}

package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/rtree"
	"repro/internal/storage"
	"repro/internal/workload"
)

func TestParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	ps := clusteredPoints(rng, 400, 4, 600)
	qs := clusteredPoints(rng, 350, 6, 800)
	pool := buffer.NewPool(-1)
	tp := buildTree(t, ps, pool, 1, true)
	tq := buildTree(t, qs, pool, 2, true)
	for _, alg := range []Algorithm{AlgINJ, AlgBIJ, AlgOBJ} {
		seq, seqStats, err := Join(tq, tp, Options{Algorithm: alg, Collect: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{2, 4, 8} {
			t.Run(fmt.Sprintf("%v/workers=%d", alg, par), func(t *testing.T) {
				got, stats, err := Join(tq, tp, Options{Algorithm: alg, Parallelism: par, Collect: true})
				if err != nil {
					t.Fatal(err)
				}
				diffPairs(t, "parallel", seq, got)
				if stats.Results != seqStats.Results || stats.Candidates != seqStats.Candidates {
					t.Errorf("stats diverge: parallel %+v vs sequential %+v", stats, seqStats)
				}
			})
		}
	}
}

func TestParallelSelfJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	pts := randomPoints(rng, 300)
	pool := buffer.NewPool(-1)
	tr := buildTree(t, pts, pool, 1, true)
	seq, _, err := Join(tr, tr, Options{Algorithm: AlgOBJ, SelfJoin: true, Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	par, _, err := Join(tr, tr, Options{Algorithm: AlgOBJ, SelfJoin: true, Parallelism: 4, Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	diffPairs(t, "parallel-self", seq, par)
	for _, p := range par {
		if p.P.ID >= p.Q.ID {
			t.Errorf("non-canonical pair %d,%d", p.P.ID, p.Q.ID)
		}
	}
}

func TestParallelStreaming(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	ps := randomPoints(rng, 250)
	qs := randomPoints(rng, 250)
	pool := buffer.NewPool(64) // bounded pool exercises concurrent eviction
	tp := buildTree(t, ps, pool, 1, true)
	tq := buildTree(t, qs, pool, 2, true)
	var streamed atomic.Int64
	_, stats, err := Join(tq, tp, Options{
		Algorithm:   AlgOBJ,
		Parallelism: 4,
		OnPair:      func(Pair) { streamed.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if streamed.Load() != stats.Results {
		t.Errorf("streamed %d, stats %d", streamed.Load(), stats.Results)
	}
	seq, _, err := Join(tq, tp, Options{Algorithm: AlgOBJ, Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(seq)) != stats.Results {
		t.Errorf("parallel found %d, sequential %d", stats.Results, len(seq))
	}
}

func TestParallelWithSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	ps := randomPoints(rng, 500)
	qs := randomPoints(rng, 500)
	pool := buffer.NewPool(-1)
	tp := buildTree(t, ps, pool, 1, true)
	tq := buildTree(t, qs, pool, 2, true)
	seqSample, _, err := Join(tq, tp, Options{Algorithm: AlgOBJ, LeafSampleEvery: 3, Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	parSample, _, err := Join(tq, tp, Options{Algorithm: AlgOBJ, LeafSampleEvery: 3, Parallelism: 3, Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	diffPairs(t, "sampled-parallel", seqSample, parSample)
}

// TestParallelFeederFailurePaths covers every way the parallel run stops
// early while the caller is still walking TQ and feeding workers: an
// external cancellation, a satisfied Limit, a read error of the walk's own
// and one inside a worker. Each must return the first error (nil for the
// Limit), stop the walk within a few leaves of the stop, and leave no
// goroutine behind. Verification is skipped so that the walk is the only
// reader of TQ, and TQ's read count is the walk's progress.
func TestParallelFeederFailurePaths(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	pool := buffer.NewPool(-1)
	tp := buildTree(t, randomPoints(rng, 4000), pool, 1, true)
	tq := buildTree(t, randomPoints(rng, 4000), pool, 2, true)
	counted := &hookIndex{SpatialIndex: tq}
	if _, err := rtree.VisitLeaves(counted, nil, func(storage.PageID, *rtree.Node) error { return nil }); err != nil {
		t.Fatal(err)
	}
	nodes := counted.reads.Load()

	const par = 2
	// slack bounds the walk's reads after the stop: one leaf per worker
	// that had already taken one, the leaf the walk was holding, and the
	// inner nodes on the way to it.
	const slack = 2*par + 4
	if nodes < 8*slack {
		t.Fatalf("TQ has %d nodes, too few to tell a stopped walk from a finished one", nodes)
	}
	boom := errors.New("injected read failure")

	for _, c := range []struct {
		name  string
		limit int
		// setup returns the two inputs and the TQ read count at the stop.
		setup   func(cancel context.CancelFunc) (q *hookIndex, p SpatialIndex, stopAt func() int64)
		wantErr error
	}{
		{
			name: "cancel mid-walk",
			setup: func(cancel context.CancelFunc) (*hookIndex, SpatialIndex, func() int64) {
				q := &hookIndex{SpatialIndex: tq, hook: func(read int64) error {
					if read == 10 {
						cancel()
					}
					return nil
				}}
				return q, tp, func() int64 { return 10 }
			},
			wantErr: context.Canceled,
		},
		{
			name:  "limit satisfied",
			limit: 5,
			setup: func(context.CancelFunc) (*hookIndex, SpatialIndex, func() int64) {
				// The first leaf's pairs already satisfy the limit.
				return &hookIndex{SpatialIndex: tq}, tp, func() int64 { return 1 }
			},
		},
		{
			name: "walk read error",
			setup: func(context.CancelFunc) (*hookIndex, SpatialIndex, func() int64) {
				q := &hookIndex{SpatialIndex: tq, hook: failAfter(9, boom)}
				return q, tp, func() int64 { return 10 }
			},
			wantErr: boom,
		},
		{
			name: "worker read error",
			setup: func(context.CancelFunc) (*hookIndex, SpatialIndex, func() int64) {
				q := &hookIndex{SpatialIndex: tq}
				var at atomic.Int64
				p := &hookIndex{SpatialIndex: tp, hook: func(read int64) error {
					if read < 25 {
						return nil
					}
					at.CompareAndSwap(0, q.reads.Load())
					return boom
				}}
				return q, p, at.Load
			},
			wantErr: boom,
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			q, p, stopAt := c.setup(cancel)
			_, st, err := JoinContext(ctx, q, p, Options{
				Algorithm: AlgOBJ, Parallelism: par, Collect: true,
				SkipVerification: true, Limit: c.limit,
			})
			if !errors.Is(err, c.wantErr) {
				t.Fatalf("err = %v, want %v", err, c.wantErr)
			}
			if c.limit > 0 && st.Results != int64(c.limit) {
				t.Errorf("%d results, want the limit %d", st.Results, c.limit)
			}
			if reads, at := q.reads.Load(), stopAt(); reads > at+slack {
				t.Errorf("the walk read %d of %d TQ nodes, %d after the stop at read %d", reads, nodes, reads-at, at)
			}
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > baseline {
				t.Errorf("%d goroutines after the join, %d before", n, baseline)
			}
		})
	}
}

// BenchmarkParallelJoin measures worker scaling of a full OBJ join of 8K x 8K
// uniform points over a warm, unbounded buffer. A speedup needs idle cores;
// on one CPU the variants tie.
func BenchmarkParallelJoin(b *testing.B) {
	pool := buffer.NewPool(-1)
	tq := buildTree(b, workload.Uniform(8000, 1), pool, 1, true)
	tp := buildTree(b, workload.Uniform(8000, 2), pool, 2, true)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := Join(tq, tp, Options{Algorithm: AlgOBJ, Parallelism: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

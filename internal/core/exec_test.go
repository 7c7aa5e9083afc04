package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/buffer"
	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/storage"
	"repro/internal/workload"
)

// hookIndex wraps a SpatialIndex, numbering its ReadNode calls and running
// hook before each; a hook error fails the read.
type hookIndex struct {
	SpatialIndex
	reads atomic.Int64
	hook  func(read int64) error
}

func (h *hookIndex) ReadNode(id storage.PageID) (*rtree.Node, error) {
	read := h.reads.Add(1)
	if h.hook != nil {
		if err := h.hook(read); err != nil {
			return nil, err
		}
	}
	return h.SpatialIndex.ReadNode(id)
}

// failAfter is a hookIndex hook failing every read after the n-th with err.
func failAfter(n int64, err error) func(int64) error {
	return func(read int64) error {
		if read > n {
			return err
		}
		return nil
	}
}

// TestJoinContextPreCancelled and TestJoinContextCancelMidRun run each join
// twice: par=4 sets the deprecated Options.Parallelism, which must change
// nothing.
func TestJoinContextPreCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	ps := randomPoints(rng, 200)
	qs := randomPoints(rng, 200)
	pool := buffer.NewPool(-1)
	tp := buildTree(t, ps, pool, 1, true)
	tq := buildTree(t, qs, pool, 2, true)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, alg := range []Algorithm{AlgINJ, AlgBIJ, AlgOBJ, AlgBrute} {
		for _, par := range []int{1, 4} {
			if alg == AlgBrute && par > 1 {
				continue
			}
			t.Run(fmt.Sprintf("%v/par=%d", alg, par), func(t *testing.T) {
				_, stats, err := JoinContext(ctx, tq, tp, Options{Algorithm: alg, Parallelism: par, Collect: true})
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
				if stats.Results != 0 {
					t.Fatalf("cancelled join produced %d results", stats.Results)
				}
			})
		}
	}
}

func TestJoinContextCancelMidRun(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	ps := clusteredPoints(rng, 500, 4, 600)
	qs := clusteredPoints(rng, 500, 6, 800)
	pool := buffer.NewPool(-1)
	tp := buildTree(t, ps, pool, 1, true)
	tq := buildTree(t, qs, pool, 2, true)

	full, _, err := Join(tq, tp, Options{Algorithm: AlgOBJ, Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(full) < 10 {
		t.Skipf("dataset yields only %d pairs", len(full))
	}

	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("par=%d", par), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var seen atomic.Int64
			_, stats, err := JoinContext(ctx, tq, tp, Options{
				Algorithm:   AlgOBJ,
				Parallelism: par,
				OnPair: func(Pair) {
					if seen.Add(1) == 3 {
						cancel()
					}
				},
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if stats.Results >= int64(len(full)) {
				t.Fatalf("cancelled join still produced all %d results", stats.Results)
			}
		})
	}
}

// TestParallelFirstErrorCancelsOutstandingWork checks that the first read
// error of the inner tree ends the run: it is returned, and no read follows
// it — every later read would fail too, so a run that went on would keep
// reading. The deprecated Options.Parallelism is set and must change
// nothing.
func TestParallelFirstErrorCancelsOutstandingWork(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	ps := randomPoints(rng, 600)
	qs := randomPoints(rng, 600)
	pool := buffer.NewPool(-1)
	tp := buildTree(t, ps, pool, 1, true)
	tq := buildTree(t, qs, pool, 2, true)

	boom := errors.New("injected read failure")
	flaky := &hookIndex{SpatialIndex: tp, hook: failAfter(25, boom)}
	_, _, err := JoinContext(context.Background(), tq, flaky, Options{Algorithm: AlgOBJ, Parallelism: 4, Collect: true})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the injected failure", err)
	}
	if reads := flaky.reads.Load(); reads != 26 {
		t.Errorf("%d reads of the inner tree, want 26: the 26th failed and ends the run", reads)
	}
}

func TestJoinContextNilIsBackground(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	pts := randomPoints(rng, 120)
	pool := buffer.NewPool(-1)
	tr := buildTree(t, pts, pool, 1, true)
	got, _, err := JoinContext(nil, tr, tr, Options{Algorithm: AlgOBJ, SelfJoin: true, Collect: true}) //nolint:staticcheck
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := Join(tr, tr, Options{Algorithm: AlgOBJ, SelfJoin: true, Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	diffPairs(t, "nil-ctx", want, got)
}

// TestSelfJoinVerifiesOnce pins the self-join's single verification: every
// unordered pair passes the filter in both orientations, and only the one
// keepSelfPair emits (P.ID < Q.ID) enters verification and
// Stats.Candidates. The pairs must still be the oracle's, under every
// algorithm and predicate class, on Degenerate's self-joins and a uniform
// 2k set.
func TestSelfJoinVerifiesOnce(t *testing.T) {
	var inputs []workload.Case
	for _, c := range workload.Degenerate(160) {
		inputs = append(inputs, workload.Case{Name: c.Name, P: c.P})
	}
	inputs = append(inputs, workload.Case{Name: "uniform2k", P: workload.Uniform(2000, 11)})
	for _, c := range inputs {
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			tree := filterCountsTree(t, c.P, buffer.NewPool(-1), 0)
			extent := geom.EmptyRect()
			for _, p := range c.P {
				extent = extent.ExtendPoint(p.P)
			}
			oracle := BruteForcePairs(c.P, c.P, true)
			for _, class := range filterCountsClasses(extent) {
				if class.name == "window-inf" {
					continue
				}
				want := filterCountsDigest(postFilter(oracle, class.opts))
				for _, alg := range []Algorithm{AlgINJ, AlgBIJ, AlgOBJ} {
					opts := class.opts
					opts.Algorithm, opts.SelfJoin, opts.Collect = alg, true, true
					survivors := int64(0)
					j := &joiner{tq: tree, tp: tree, opts: opts}
					j.filtered = func(queries []bulkQuery) {
						for i := range queries {
							for _, p := range queries[i].cands {
								if p.ID < queries[i].q.ID {
									survivors++
								}
							}
						}
					}
					pairs, st, err := j.execute(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					name := fmt.Sprintf("%s/%v", class.name, alg)
					if got := filterCountsDigest(pairs); got != want {
						t.Errorf("%s: digest %s, oracle's %s", name, got, want)
					}
					if st.Candidates != survivors {
						t.Errorf("%s: %d candidates, want the %d filter survivors with P.ID < Q.ID", name, st.Candidates, survivors)
					}
				}
			}
		})
	}
}

// Options.Parallelism is deprecated and ignored: every join runs on the
// goroutine that called JoinContext. The TestParallel* tests pin that a
// join with it set is the sequential join — the same pairs in the same
// order, the same counts, the same failure paths — and starts no goroutine.

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
				if !slices.Equal(got, seq) {
					t.Errorf("Parallelism %d: %d pairs, not the sequential run's %d in its order", par, len(got), len(seq))
				}
				if stats != seqStats {
					t.Errorf("stats diverge: Parallelism %d %+v vs sequential %+v", par, stats, seqStats)
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
	if !slices.Equal(par, seq) {
		t.Errorf("Parallelism 4: %d pairs, not the sequential run's %d in its order", len(par), len(seq))
	}
}

// TestParallelStreaming checks that OnPair sees every pair with no
// goroutine running beside it.
func TestParallelStreaming(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	ps := randomPoints(rng, 250)
	qs := randomPoints(rng, 250)
	pool := buffer.NewPool(64)
	tp := buildTree(t, ps, pool, 1, true)
	tq := buildTree(t, qs, pool, 2, true)
	base := runtime.NumGoroutine()
	var streamed int64
	_, stats, err := Join(tq, tp, Options{
		Algorithm:   AlgOBJ,
		Parallelism: 4,
		OnPair: func(Pair) {
			if n := runtime.NumGoroutine(); n > base {
				t.Fatalf("pair %d: %d goroutines running, %d before the join", streamed, n, base)
			}
			streamed++
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if streamed != stats.Results {
		t.Errorf("streamed %d, stats %d", streamed, stats.Results)
	}
	seq, _, err := Join(tq, tp, Options{Algorithm: AlgOBJ, Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(seq)) != stats.Results {
		t.Errorf("Parallelism 4 found %d, sequential %d", stats.Results, len(seq))
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

// TestParallelFeederFailurePaths covers every way a run stops early while
// it walks TQ and feeds its leaves to the pipeline: an external
// cancellation, a satisfied Limit, a read error of the walk's own, and one
// inside the pipeline (an inner-tree read, the "worker" case). Each must
// return the first error (nil for the Limit), stop the walk within a leaf's
// path of the stop, and run no goroutine beside the join. Verification is
// skipped so that the walk is the only reader of TQ, and TQ's read count is
// the walk's progress.
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

	// slack bounds the walk's reads after the stop: the path down to the
	// next leaf, whose processing notices the stop.
	const slack = 4
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
				var at int64
				p := &hookIndex{SpatialIndex: tp, hook: func(read int64) error {
					if read < 25 {
						return nil
					}
					if at == 0 {
						at = q.reads.Load()
					}
					return boom
				}}
				return q, p, func() int64 { return at }
			},
			wantErr: boom,
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			q, p, stopAt := c.setup(cancel)
			beside := 0
			hook := q.hook
			q.hook = func(read int64) error {
				beside = max(beside, runtime.NumGoroutine()-base)
				if hook != nil {
					return hook(read)
				}
				return nil
			}
			_, st, err := JoinContext(ctx, q, p, Options{
				Algorithm: AlgOBJ, Parallelism: 2, Collect: true,
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
			if beside > 0 {
				t.Errorf("%d goroutines ran beside the join", beside)
			}
			if n := runtime.NumGoroutine(); n > base {
				t.Errorf("%d goroutines after the join, %d before", n, base)
			}
		})
	}
}

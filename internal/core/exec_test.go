package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

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

func TestParallelFirstErrorCancelsOutstandingWork(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	ps := randomPoints(rng, 600)
	qs := randomPoints(rng, 600)
	pool := buffer.NewPool(-1)
	tp := buildTree(t, ps, pool, 1, true)
	tq := buildTree(t, qs, pool, 2, true)

	boom := errors.New("injected read failure")
	flaky := &hookIndex{SpatialIndex: tp, hook: failAfter(25, boom)}
	start := time.Now()
	_, _, err := JoinContext(context.Background(), tq, flaky, Options{Algorithm: AlgOBJ, Parallelism: 4, Collect: true})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the injected failure", err)
	}
	// Workers must stop, not drain the whole leaf schedule: after the first
	// failure every subsequent read also fails, so a draining implementation
	// would still touch most leaves. The joins abort within a few reads.
	if reads := flaky.reads.Load(); reads > 25+200 {
		t.Errorf("after first failure the pool kept issuing reads (%d total)", reads)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("erroring join took %v", elapsed)
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

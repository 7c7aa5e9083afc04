// Package bench holds the repository-level benchmark harness: one testing.B
// benchmark per table and figure of the paper's evaluation (driving
// internal/exp at a reduced scale so `go test -bench=.` completes quickly),
// plus ablation benchmarks for the design choices called out in DESIGN.md.
//
// To regenerate an experiment at paper scale, use cmd/rcjbench with
// -scale 1; these benchmarks default to benchScale of the paper's
// cardinalities.
package bench

import (
	"fmt"
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/roadnet"
	"repro/internal/rtree"
	"repro/internal/storage"
	"repro/internal/workload"
)

// benchScale is the dataset scale the benchmarks run at (fraction of the
// paper's cardinalities).
const benchScale = 0.02

func benchCfg() exp.Config {
	return exp.Config{Scale: benchScale}
}

// BenchmarkTable4Candidates regenerates Table 4: candidate-pair counts of
// BRUTE/INJ/BIJ/OBJ on the real-like SP and LP combinations.
func BenchmarkTable4Candidates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Table4(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(rows[0].OBJ), "SP-OBJ-candidates")
			b.ReportMetric(float64(rows[0].RCJResults), "SP-results")
		}
	}
}

// BenchmarkFig10EpsilonResemblance regenerates Figure 10: precision/recall
// of the ε-distance join vs RCJ.
func BenchmarkFig10EpsilonResemblance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig10(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11KCPResemblance regenerates Figure 11: precision/recall of
// the k-closest-pairs join vs RCJ.
func BenchmarkFig11KCPResemblance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig11(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig12KNNResemblance regenerates Figure 12: precision/recall of
// the kNN join vs RCJ.
func BenchmarkFig12KNNResemblance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig12(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig13JoinCombos regenerates Figure 13: cost per join combination
// (SP, LP, SP', LP') per algorithm.
func BenchmarkFig13JoinCombos(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig13(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig14VerificationCost regenerates Figure 14: cost with vs
// without the verification step on UI data.
func BenchmarkFig14VerificationCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig14(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig15BufferSize regenerates Figure 15: the buffer-size sweep.
func BenchmarkFig15BufferSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig15(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig16DataSize regenerates Figure 16: the data-size scalability
// sweep (time and result cardinality).
func BenchmarkFig16DataSize(b *testing.B) {
	cfg := benchCfg()
	cfg.Scale = benchScale / 2 // the sweep itself reaches 800K × scale
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig16(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig17CardinalityRatio regenerates Figure 17: the cardinality
// ratio sweep at fixed total size.
func BenchmarkFig17CardinalityRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig17(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig18Clusters regenerates Figure 18: the Gaussian cluster-count
// sweep.
func BenchmarkFig18Clusters(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig18(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benchmarks (DESIGN.md §5) ---

// benchEnv builds a UI join environment of n points per side.
func benchEnv(b *testing.B, n int) *exp.Env {
	b.Helper()
	env, err := exp.NewEnv(workload.Uniform(n, 1), workload.Uniform(n, 2), 0.01, 0)
	if err != nil {
		b.Fatal(err)
	}
	return env
}

// BenchmarkAblationSearchOrder compares depth-first TQ leaf order (Section
// 3.4) against a random leaf order: same result set, worse access locality.
func BenchmarkAblationSearchOrder(b *testing.B) {
	env := benchEnv(b, 4000)
	for _, mode := range []struct {
		name   string
		random bool
	}{{"depth-first", false}, {"random", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var faults int64
			for i := 0; i < b.N; i++ {
				res, err := env.Run(core.Options{Algorithm: core.AlgOBJ, RandomLeafOrder: mode.random, Seed: 42})
				if err != nil {
					b.Fatal(err)
				}
				faults = res.Cost.Faults
			}
			b.ReportMetric(float64(faults), "page-faults")
		})
	}
}

// BenchmarkAblationSymmetricPruning isolates Lemma 5: BIJ vs OBJ on the
// same environment, reporting candidate counts.
func BenchmarkAblationSymmetricPruning(b *testing.B) {
	env := benchEnv(b, 4000)
	for _, alg := range []core.Algorithm{core.AlgBIJ, core.AlgOBJ} {
		b.Run(alg.String(), func(b *testing.B) {
			var cands int64
			for i := 0; i < b.N; i++ {
				res, err := env.Run(core.Options{Algorithm: alg})
				if err != nil {
					b.Fatal(err)
				}
				cands = res.Stats.Candidates
			}
			b.ReportMetric(float64(cands), "candidates")
		})
	}
}

// BenchmarkAblationFaceRule toggles the face-inside-circle verification
// shortcut (Algorithm 3, case 4), reporting verification node visits.
func BenchmarkAblationFaceRule(b *testing.B) {
	env := benchEnv(b, 4000)
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"face-rule-on", false}, {"face-rule-off", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var visited int64
			for i := 0; i < b.N; i++ {
				res, err := env.Run(core.Options{Algorithm: core.AlgOBJ, DisableFaceRule: mode.disable})
				if err != nil {
					b.Fatal(err)
				}
				visited = res.Stats.VerifiedNodes
			}
			b.ReportMetric(float64(visited), "verify-node-visits")
		})
	}
}

// BenchmarkAblationBulkLoad compares STR bulk loading against one-by-one R*
// insertion for index construction.
func BenchmarkAblationBulkLoad(b *testing.B) {
	pts := workload.Uniform(20000, 3)
	build := func(bulk bool) {
		pager := storage.NewMemPager(storage.DefaultPageSize)
		tree, err := rtree.New(pager, buffer.NewPool(-1), rtree.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if bulk {
			if err := tree.BulkLoad(pts, 0); err != nil {
				b.Fatal(err)
			}
			return
		}
		for _, p := range pts {
			if err := tree.Insert(p.P, p.ID); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("str-bulk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			build(true)
		}
	})
	b.Run("rstar-insert", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			build(false)
		}
	})
}

// BenchmarkAblationNoBuffer contrasts the paper's 1% buffer against no
// buffering at all (every node access faults).
func BenchmarkAblationNoBuffer(b *testing.B) {
	env := benchEnv(b, 4000)
	for _, mode := range []struct {
		name string
		frac float64
	}{{"buffer-1pct", 0.01}, {"no-buffer", 0}} {
		b.Run(mode.name, func(b *testing.B) {
			if mode.frac == 0 {
				env.Pool.Resize(0)
			} else {
				env.SetBufferFrac(mode.frac)
			}
			var faults int64
			for i := 0; i < b.N; i++ {
				res, err := env.Run(core.Options{Algorithm: core.AlgOBJ})
				if err != nil {
					b.Fatal(err)
				}
				faults = res.Cost.Faults
			}
			b.ReportMetric(float64(faults), "page-faults")
		})
	}
}

// BenchmarkAlgorithms measures the three join algorithms head-to-head on one
// environment — the per-join microbenchmark behind every figure.
func BenchmarkAlgorithms(b *testing.B) {
	env := benchEnv(b, 4000)
	for _, alg := range []core.Algorithm{core.AlgINJ, core.AlgBIJ, core.AlgOBJ} {
		b.Run(alg.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := env.Run(core.Options{Algorithm: alg}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkJoinL1 measures the Manhattan-metric extension.
func BenchmarkJoinL1(b *testing.B) {
	env := benchEnv(b, 2000)
	for i := 0; i < b.N; i++ {
		env.Reset()
		if _, _, err := core.Join(env.TQ, env.TP, core.Options{Metric: core.MetricL1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelJoin measures worker-pool scaling of the join. Speedup
// requires a multicore machine; on a single-CPU host the variants tie (the
// parallel path is validated for correctness, not throughput, there).
func BenchmarkParallelJoin(b *testing.B) {
	env := benchEnv(b, 8000)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := core.Options{Algorithm: core.AlgOBJ}
				if workers > 1 {
					opts.Parallelism = workers
				}
				if _, err := env.Run(opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMonitorInsert measures incremental maintenance throughput: one
// point insertion into a live 10K×10K join.
func BenchmarkMonitorInsert(b *testing.B) {
	pool := buffer.NewPool(-1)
	build := func(pts []rtree.PointEntry, owner uint32) *rtree.Tree {
		tr, err := rtree.New(storage.NewMemPager(storage.DefaultPageSize), pool, rtree.Config{Owner: owner})
		if err != nil {
			b.Fatal(err)
		}
		if err := tr.BulkLoad(pts, 0); err != nil {
			b.Fatal(err)
		}
		return tr
	}
	tq := build(workload.Uniform(10000, 1), 1)
	tp := build(workload.Uniform(10000, 2), 2)
	m, err := core.NewMonitor(tq, tp)
	if err != nil {
		b.Fatal(err)
	}
	fresh := workload.Uniform(200000, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt := fresh[i%len(fresh)]
		if _, _, err := m.AddP(pt.P, int64(1_000_000+i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNetworkJoin measures the road-network RCJ (future work §6) on a
// street grid.
func BenchmarkNetworkJoin(b *testing.B) {
	g := roadnet.GridNetwork(20, 20, 100, 1)
	P := roadnet.RandomPointsOnNodes(g, 80, 2)
	Q := roadnet.RandomPointsOnNodes(g, 80, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := roadnet.Join(g, P, Q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSelfJoin measures the self-join (postboxes) path.
func BenchmarkSelfJoin(b *testing.B) {
	pts := workload.Uniform(4000, 7)
	env, err := exp.NewEnv(pts, pts, 0.01, 0)
	if err != nil {
		b.Fatal(err)
	}
	env.TQ = env.TP // a self-join reads one tree
	for i := 0; i < b.N; i++ {
		if _, err := env.Run(core.Options{Algorithm: core.AlgOBJ, SelfJoin: true}); err != nil {
			b.Fatal(err)
		}
	}
}

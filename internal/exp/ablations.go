package exp

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/rtree"
	"repro/internal/storage"
	"repro/internal/workload"
)

// AblationRow is one variant measurement of an ablation study. Counts holds
// the integer the study compares (faults, candidates, verify visits, pages).
type AblationRow struct {
	Study   string
	Variant string
	Cost    cost.Breakdown
	Counts  map[string]int64
}

// Ablations runs the design-choice studies DESIGN.md calls out, each
// isolating one mechanism of the paper's algorithms:
//
//   - search order: depth-first vs random TQ leaf order (Section 3.4)
//   - symmetric pruning: BIJ vs OBJ candidate counts (Lemma 5)
//   - face rule: verification with and without the face-inside-circle
//     shortcut (Algorithm 3 case 4)
//   - no buffer: the 1% buffer against none at all
//   - build method: STR bulk load vs R* insertion (index construction)
//   - split policy: R* split vs Guttman's linear split
//   - L1 metric: INJ, BIJ and OBJ on Fig. 13's LP input under the
//     Manhattan ring (Section 6), which run the Euclidean join's filter
//     traversal and verifier with quadrant regions and L1 signs
func Ablations(cfg Config) ([]AblationRow, error) {
	cfg = cfg.withDefaults()
	n := cfg.scaled(200_000)
	env, err := cfg.newEnv(workload.Uniform(n, 1), workload.Uniform(n, 2))
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	add := func(study, variant string, res RunResult, counts map[string]int64) {
		rows = append(rows, AblationRow{Study: study, Variant: variant, Cost: res.Cost, Counts: counts})
	}

	// Search order (Section 3.4): locality of depth-first traversal.
	df, err := env.Run(core.Options{Algorithm: core.AlgOBJ})
	if err != nil {
		return nil, err
	}
	add("search-order", "depth-first", df, map[string]int64{"faults": df.Cost.Faults})
	rnd, err := env.Run(core.Options{Algorithm: core.AlgOBJ, RandomLeafOrder: true, Seed: 42})
	if err != nil {
		return nil, err
	}
	add("search-order", "random", rnd, map[string]int64{"faults": rnd.Cost.Faults})

	// Symmetric pruning (Lemma 5): candidate counts.
	bij, err := env.Run(core.Options{Algorithm: core.AlgBIJ})
	if err != nil {
		return nil, err
	}
	add("symmetric-pruning", "off (BIJ)", bij, map[string]int64{"candidates": bij.Stats.Candidates})
	obj, err := env.Run(core.Options{Algorithm: core.AlgOBJ})
	if err != nil {
		return nil, err
	}
	add("symmetric-pruning", "on (OBJ)", obj, map[string]int64{"candidates": obj.Stats.Candidates})

	// Face rule (Algorithm 3 case 4): verification node visits.
	faceOn, err := env.Run(core.Options{Algorithm: core.AlgOBJ})
	if err != nil {
		return nil, err
	}
	add("face-rule", "on", faceOn, map[string]int64{"verify_visits": faceOn.Stats.VerifiedNodes})
	faceOff, err := env.Run(core.Options{Algorithm: core.AlgOBJ, DisableFaceRule: true})
	if err != nil {
		return nil, err
	}
	add("face-rule", "off", faceOff, map[string]int64{"verify_visits": faceOff.Stats.VerifiedNodes})

	// Buffering: the paper's 1% buffer vs none.
	env.SetBufferFrac(cfg.BufferFrac)
	buffered, err := env.Run(core.Options{Algorithm: core.AlgOBJ})
	if err != nil {
		return nil, err
	}
	add("buffer", fmt.Sprintf("%.1f%%", cfg.BufferFrac*100), buffered, map[string]int64{"faults": buffered.Cost.Faults})
	env.Pool.Resize(0)
	unbuffered, err := env.Run(core.Options{Algorithm: core.AlgOBJ})
	if err != nil {
		return nil, err
	}
	env.SetBufferFrac(cfg.BufferFrac)
	add("buffer", "none", unbuffered, map[string]int64{"faults": unbuffered.Cost.Faults})

	// Build method: STR bulk load vs R* one-by-one insertion.
	buildPts := workload.Uniform(cfg.scaled(100_000), 3)
	for _, variant := range []string{"str-bulk", "rstar-insert"} {
		pager := storage.NewMemPager(cfg.PageSize)
		pool := buffer.NewPool(-1)
		tree, err := rtree.New(pager, pool, rtree.Config{PageSize: cfg.PageSize})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if variant == "str-bulk" {
			err = tree.BulkLoad(buildPts, 0)
		} else {
			for _, p := range buildPts {
				if err = tree.Insert(p.P, p.ID); err != nil {
					break
				}
			}
		}
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		rows = append(rows, AblationRow{
			Study:   "build-method",
			Variant: variant,
			Cost:    cost.Breakdown{CPUTime: elapsed},
			Counts:  map[string]int64{"pages": int64(tree.NumPages()), "height": int64(tree.Height())},
		})
	}

	// Split policy: the paper's R* split vs Guttman's linear split. Both
	// insert-built trees then serve the same join; the poorer index shows
	// up as extra faults.
	splitN := cfg.scaled(50_000)
	splitP := workload.Uniform(splitN, 4)
	splitQ := workload.Uniform(splitN, 5)
	for _, pol := range []struct {
		name   string
		policy rtree.SplitPolicy
	}{{"rstar-split", rtree.SplitRStar}, {"linear-split", rtree.SplitLinear}} {
		pool := buffer.NewPool(-1)
		build := func(pts []rtree.PointEntry, owner uint32) (*rtree.Tree, error) {
			tr, err := rtree.New(storage.NewMemPager(cfg.PageSize), pool,
				rtree.Config{PageSize: cfg.PageSize, Owner: owner, SplitPolicy: pol.policy})
			if err != nil {
				return nil, err
			}
			for _, p := range pts {
				if err := tr.Insert(p.P, p.ID); err != nil {
					return nil, err
				}
			}
			return tr, nil
		}
		tq, err := build(splitQ, 1)
		if err != nil {
			return nil, err
		}
		tp, err := build(splitP, 2)
		if err != nil {
			return nil, err
		}
		splitEnv := &Env{Pool: pool, TQ: tq, TP: tp, Ctx: cfg.Ctx}
		splitEnv.SetBufferFrac(cfg.BufferFrac)
		res, err := splitEnv.Run(core.Options{Algorithm: core.AlgOBJ})
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Study:   "split-policy",
			Variant: pol.name,
			Cost:    res.Cost,
			Counts:  map[string]int64{"faults": res.Cost.Faults, "pages": int64(tq.NumPages() + tp.NumPages())},
		})
	}

	// L1 metric (Section 6): the three index algorithms on one Fig. 13 input
	// pair under the Manhattan ring. An L1 join seeds nothing, so OBJ reads
	// what BIJ reads; the rows are what an unforced L1 query's fixed
	// algorithm (rcj.Query.ResolvePlan) is chosen by.
	lp, _ := ComboByName("LP")
	lpEnv, err := cfg.NewComboEnv(lp)
	if err != nil {
		return nil, err
	}
	for _, alg := range rcjAlgorithms {
		res, err := lpEnv.Run(core.Options{Algorithm: alg, Metric: core.MetricL1})
		if err != nil {
			return nil, err
		}
		add("l1-metric", alg.String(), res, map[string]int64{
			"candidates": res.Stats.Candidates, "results": res.Stats.Results, "verify_visits": res.Stats.VerifiedNodes,
		})
	}

	printAblations(cfg, rows)
	return rows, nil
}

func printAblations(cfg Config, rows []AblationRow) {
	fmt.Fprintf(cfg.W, "Ablation studies (DESIGN.md §5), scale=%.3g\n", cfg.Scale)
	tw := tabwriter.NewWriter(cfg.W, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "study\tvariant\ttotal\tio\tcpu\tdetail\n")
	for _, r := range rows {
		var detail []string
		for _, k := range slices.Sorted(maps.Keys(r.Counts)) {
			detail = append(detail, fmt.Sprintf("%s=%d", k, r.Counts[k]))
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\n", r.Study, r.Variant,
			fmtDuration(r.Cost.Total()), fmtDuration(r.Cost.IOTime), fmtDuration(r.Cost.CPUTime), strings.Join(detail, " "))
	}
	tw.Flush()
	fmt.Fprintln(cfg.W)
}

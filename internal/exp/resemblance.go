package exp

import (
	"fmt"
	"math"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/joins"
)

// ResemblanceRow is one point of a precision/recall curve (Section 5.1):
// the baseline join's parameter value, its pair count, and how many of its
// pairs are RCJ pairs.
type ResemblanceRow struct {
	Param     float64
	PairCount int64 // |baseline|
	Common    int64 // |baseline ∩ RCJ|
	RCJ       int64 // |RCJ|
}

// Precision is |baseline ∩ RCJ| / |baseline|, in percent.
func (r ResemblanceRow) Precision() float64 { return pct(r.Common, r.PairCount) }

// Recall is |baseline ∩ RCJ| / |RCJ|, in percent.
func (r ResemblanceRow) Recall() float64 { return pct(r.Common, r.RCJ) }

func resemblance(param float64, pairs int64, rcj, got map[joins.Key]struct{}) ResemblanceRow {
	return ResemblanceRow{Param: param, PairCount: pairs, Common: overlap(rcj, got), RCJ: int64(len(rcj))}
}

// overlap returns |a ∩ b| over pair identities, iterating the smaller set.
func overlap(a, b map[joins.Key]struct{}) int64 {
	if len(b) < len(a) {
		a, b = b, a
	}
	var n int64
	for k := range a {
		if _, ok := b[k]; ok {
			n++
		}
	}
	return n
}

// pct returns 100·part/whole, or 0 when whole is 0.
func pct(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// ResemblanceSeries is one combination's precision/recall curve.
type ResemblanceSeries struct {
	Combo string
	Rows  []ResemblanceRow
}

// rcjKeySet computes the RCJ reference result (with OBJ, the fastest exact
// algorithm) as an identity set.
func rcjKeySet(env *Env) (map[joins.Key]struct{}, error) {
	pairs, _, err := env.RunCollect(core.Options{Algorithm: core.AlgOBJ})
	if err != nil {
		return nil, err
	}
	set := make(map[joins.Key]struct{}, len(pairs))
	for _, p := range pairs {
		set[joins.Key{PID: p.P.ID, QID: p.Q.ID}] = struct{}{}
	}
	return set, nil
}

// Fig10 regenerates Figure 10 ("Resemblance of ε-Range Pairs vs ε") on the
// SP and LP combinations: precision and recall of the ε-distance join with
// respect to RCJ, as ε sweeps the paper's [0, 10] interval. At reduced scale
// the sweep values are multiplied by √(1/Scale) so they track the thinner
// point density.
func Fig10(cfg Config) ([]ResemblanceSeries, error) {
	cfg = cfg.withDefaults()
	adj := math.Sqrt(1 / cfg.Scale)
	epsValues := []float64{0.5, 1, 2, 4, 6, 8, 10}
	var out []ResemblanceSeries
	for _, name := range []string{"SP", "LP"} {
		cb, _ := ComboByName(name)
		env, err := cfg.NewComboEnv(cb)
		if err != nil {
			return nil, err
		}
		rcj, err := rcjKeySet(env)
		if err != nil {
			return nil, err
		}
		series := ResemblanceSeries{Combo: name}
		for _, eps := range epsValues {
			got := make(map[joins.Key]struct{})
			n, err := joins.EpsilonJoinStream(env.TP, env.TQ, eps*adj, func(p joins.Pair) {
				got[joins.KeyOf(p)] = struct{}{}
			})
			if err != nil {
				return nil, err
			}
			series.Rows = append(series.Rows, resemblance(eps, n, rcj, got))
		}
		out = append(out, series)
	}
	printResemblance(cfg, "Figure 10: Resemblance of ε-Range Pairs vs ε", "eps", out)
	return out, nil
}

// Fig11 regenerates Figure 11 ("Resemblance of k-Closest Pairs vs k"): the
// k-closest-pairs join swept over k, expressed as fractions of the RCJ
// result cardinality so the sweep covers the same relative range
// (0 → ~1.2·|RCJ|) at any scale.
func Fig11(cfg Config) ([]ResemblanceSeries, error) {
	cfg = cfg.withDefaults()
	fracs := []float64{0.1, 0.25, 0.5, 0.75, 1.0, 1.2}
	var out []ResemblanceSeries
	for _, name := range []string{"SP", "LP"} {
		cb, _ := ComboByName(name)
		env, err := cfg.NewComboEnv(cb)
		if err != nil {
			return nil, err
		}
		rcj, err := rcjKeySet(env)
		if err != nil {
			return nil, err
		}
		series := ResemblanceSeries{Combo: name}
		// Checkpoints: the k values (deduplicated, ≥1) the curve samples.
		ks := make([]int, 0, len(fracs))
		for _, f := range fracs {
			k := int(f * float64(len(rcj)))
			if k < 1 {
				k = 1
			}
			if len(ks) == 0 || k > ks[len(ks)-1] {
				ks = append(ks, k)
			}
		}
		// One incremental scan at the largest k serves every smaller k:
		// pairs arrive in distance order, so the first k are the answer.
		var (
			emitted int
			got     = make(map[joins.Key]struct{})
			ki      int
		)
		err = joins.KClosestPairsStream(env.TP, env.TQ, ks[len(ks)-1], func(p joins.Pair) {
			emitted++
			got[joins.KeyOf(p)] = struct{}{}
			if ki < len(ks) && emitted == ks[ki] {
				series.Rows = append(series.Rows, resemblance(float64(emitted), int64(emitted), rcj, got))
				ki++
			}
		})
		if err != nil {
			return nil, err
		}
		// Checkpoints past the total pair count (tiny inputs) report the
		// full set.
		for ; ki < len(ks); ki++ {
			series.Rows = append(series.Rows, resemblance(float64(emitted), int64(emitted), rcj, got))
		}
		out = append(out, series)
	}
	printResemblance(cfg, "Figure 11: Resemblance of k-Closest Pairs vs k", "k", out)
	return out, nil
}

// Fig12 regenerates Figure 12 ("Resemblance of k Nearest Neighbor Pairs vs
// k"): the kNN join swept over k ∈ [1, 10].
func Fig12(cfg Config) ([]ResemblanceSeries, error) {
	cfg = cfg.withDefaults()
	ks := []int{1, 2, 4, 6, 8, 10}
	var out []ResemblanceSeries
	for _, name := range []string{"SP", "LP"} {
		cb, _ := ComboByName(name)
		env, err := cfg.NewComboEnv(cb)
		if err != nil {
			return nil, err
		}
		rcj, err := rcjKeySet(env)
		if err != nil {
			return nil, err
		}
		series := ResemblanceSeries{Combo: name}
		// One scan at max k: the kNN join for smaller k is a prefix of each
		// outer point's neighbor list, so per-point ranks are tracked.
		maxK := ks[len(ks)-1]
		sets := make([]map[joins.Key]struct{}, len(ks))
		for i := range sets {
			sets[i] = make(map[joins.Key]struct{})
		}
		rank := make(map[int64]int)
		err = joins.KNNJoinStream(env.TP, env.TQ, maxK, func(p joins.Pair) {
			r := rank[p.P.ID]
			rank[p.P.ID] = r + 1
			for i, k := range ks {
				if r < k {
					sets[i][joins.KeyOf(p)] = struct{}{}
				}
			}
		})
		if err != nil {
			return nil, err
		}
		for i, k := range ks {
			series.Rows = append(series.Rows, resemblance(float64(k), int64(len(sets[i])), rcj, sets[i]))
		}
		out = append(out, series)
	}
	printResemblance(cfg, "Figure 12: Resemblance of k Nearest Neighbor Pairs vs k", "k", out)
	return out, nil
}

func printResemblance(cfg Config, title, param string, series []ResemblanceSeries) {
	fmt.Fprintf(cfg.W, "%s (scale=%.3g)\n", title, cfg.Scale)
	for _, s := range series {
		fmt.Fprintf(cfg.W, "  combination %s:\n", s.Combo)
		tw := tabwriter.NewWriter(cfg.W, 2, 4, 2, ' ', 0)
		fmt.Fprintf(tw, "  %s\tprecision(%%)\trecall(%%)\tpairs\n", param)
		for _, r := range s.Rows {
			fmt.Fprintf(tw, "  %g\t%.1f\t%.1f\t%d\n", r.Param, r.Precision(), r.Recall(), r.PairCount)
		}
		tw.Flush()
	}
	fmt.Fprintln(cfg.W)
}

package exp

import (
	"fmt"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/workload"
)

// SweepRow is one measurement of a parameter sweep: algorithm costs and the
// result cardinality at one sweep value.
type SweepRow struct {
	// Param is the swept value: data size n in thousands (Fig 16), the
	// cardinality ratio |P|:|Q| encoded as P-share (Fig 17), or the number
	// of clusters w (Fig 18).
	Param     string
	Algorithm core.Algorithm
	Cost      cost.Breakdown
	Results   int64
}

// Fig16 regenerates Figure 16 ("The Effect of Data Size n, |P| = |Q| = n, UI
// data"): time per algorithm and RCJ result cardinality as n sweeps 50K to
// 800K (× Scale). Each row also runs the Gabriel path (not in the paper),
// which reads every page of both trees once: its faults and accesses are
// the two trees' pages, next to OBJ's.
func Fig16(cfg Config) ([]SweepRow, error) {
	cfg = cfg.withDefaults()
	var rows []SweepRow
	for _, nK := range []int{50, 100, 200, 400, 800} {
		n := cfg.scaled(nK * 1000)
		env, err := cfg.newEnv(workload.Uniform(n, 1), workload.Uniform(n, 2))
		if err != nil {
			return nil, err
		}
		label := fmt.Sprintf("%dK", nK)
		for _, alg := range append(rcjAlgorithms[:len(rcjAlgorithms):len(rcjAlgorithms)], core.AlgGabriel) {
			res, err := env.Run(core.Options{Algorithm: alg})
			if err != nil {
				return nil, err
			}
			rows = append(rows, SweepRow{Param: label, Algorithm: alg, Cost: res.Cost, Results: res.Stats.Results})
		}
	}
	printSweep(cfg, "Figure 16: The Effect of Data Size n, |P|=|Q|=n, UI data", "n", rows)
	return rows, nil
}

// Fig17 regenerates Figure 17 ("The Effect of Cardinality Ratio |P|:|Q|,
// |P|+|Q| = 400K, UI data"): the total cardinality is fixed while the split
// sweeps 1:4 through 4:1.
func Fig17(cfg Config) ([]SweepRow, error) {
	cfg = cfg.withDefaults()
	total := cfg.scaled(400_000)
	ratios := []struct {
		label  string
		pShare float64
	}{
		{"1:4", 1.0 / 5}, {"1:2", 1.0 / 3}, {"1:1", 1.0 / 2}, {"2:1", 2.0 / 3}, {"4:1", 4.0 / 5},
	}
	var rows []SweepRow
	for _, r := range ratios {
		nP := int(float64(total) * r.pShare)
		nQ := total - nP
		env, err := cfg.newEnv(workload.Uniform(nQ, 1), workload.Uniform(nP, 2))
		if err != nil {
			return nil, err
		}
		for _, alg := range rcjAlgorithms {
			res, err := env.Run(core.Options{Algorithm: alg})
			if err != nil {
				return nil, err
			}
			rows = append(rows, SweepRow{Param: r.label, Algorithm: alg, Cost: res.Cost, Results: res.Stats.Results})
		}
	}
	printSweep(cfg, "Figure 17: The Effect of Cardinality Ratio |P|:|Q|, |P|+|Q|=400K, UI data", "|P|:|Q|", rows)
	return rows, nil
}

// Fig18 regenerates Figure 18 ("The Effect of Number of Clusters w, |P| =
// |Q| = 200K, Gaussian data"): both inputs are Gaussian around the same w
// cluster centers, with standard deviation 1000 per dimension.
func Fig18(cfg Config) ([]SweepRow, error) {
	cfg = cfg.withDefaults()
	n := cfg.scaled(200_000)
	var rows []SweepRow
	for _, w := range []int{2, 5, 10, 15, 20} {
		qs, ps := workload.GaussianClusterPair(n, w, 1000, 1)
		env, err := cfg.newEnv(qs, ps)
		if err != nil {
			return nil, err
		}
		label := fmt.Sprintf("%d", w)
		for _, alg := range rcjAlgorithms {
			res, err := env.Run(core.Options{Algorithm: alg})
			if err != nil {
				return nil, err
			}
			rows = append(rows, SweepRow{Param: label, Algorithm: alg, Cost: res.Cost, Results: res.Stats.Results})
		}
	}
	printSweep(cfg, "Figure 18: The Effect of Number of Clusters w, |P|=|Q|=200K, Gaussian data", "w", rows)
	return rows, nil
}

func printSweep(cfg Config, title, paramLabel string, rows []SweepRow) {
	fmt.Fprintf(cfg.W, "%s (scale=%.3g)\n", title, cfg.Scale)
	tw := tabwriter.NewWriter(cfg.W, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "%s\talgorithm\ttotal\tio\tcpu\tfaults\tresults\n", paramLabel)
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%d\t%d\n", r.Param, r.Algorithm,
			fmtDuration(r.Cost.Total()), fmtDuration(r.Cost.IOTime), fmtDuration(r.Cost.CPUTime),
			r.Cost.Faults, r.Results)
	}
	tw.Flush()
	fmt.Fprintln(cfg.W)
}

package exp

import (
	"fmt"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/joins"
	"repro/internal/roadnet"
	"repro/internal/rtree"
)

// NetworkRow compares the network-metric RCJ against the Euclidean RCJ on
// the same venue embedding, for one grid size.
type NetworkRow struct {
	GridSide     int
	Points       int
	NetworkPairs int64
	EuclidPairs  int64
	Common       int64 // |network ∩ Euclidean|
	Candidates   int64
	SettledNodes int64
}

// Precision is the share of Euclidean pairs that are network pairs, in percent.
func (r NetworkRow) Precision() float64 { return pct(r.Common, r.EuclidPairs) }

// Recall is the share of network pairs the Euclidean join finds, in percent.
func (r NetworkRow) Recall() float64 { return pct(r.Common, r.NetworkPairs) }

// Network studies the paper's road-network generalization (future work
// §6): it joins point sets placed on street-grid intersections under
// shortest-path distance, and measures how much the Euclidean result set
// resembles it — quantifying what planning on straight-line distance gets
// wrong in a city.
func Network(cfg Config) ([]NetworkRow, error) {
	cfg = cfg.withDefaults()
	var rows []NetworkRow
	for _, side := range []int{10, 16, 24} {
		g := roadnet.GridNetwork(side, side, 100, int64(side))
		nPts := side * side / 5
		P := roadnet.RandomPointsOnNodes(g, nPts, int64(side)*3+1)
		Q := roadnet.RandomPointsOnNodes(g, nPts, int64(side)*3+2)

		netPairs, stats, err := roadnet.Join(g, P, Q)
		if err != nil {
			return nil, err
		}
		netSet := make(map[joins.Key]struct{}, len(netPairs))
		for _, p := range netPairs {
			netSet[joins.Key{PID: p.P.ID, QID: p.Q.ID}] = struct{}{}
		}

		toEntries := func(pts []roadnet.PointRef) []rtree.PointEntry {
			out := make([]rtree.PointEntry, len(pts))
			for i, p := range pts {
				out[i] = rtree.PointEntry{P: g.Pos(p.Node), ID: p.ID}
			}
			return out
		}
		env, err := cfg.newEnv(toEntries(Q), toEntries(P))
		if err != nil {
			return nil, err
		}
		eucPairs, _, err := env.RunCollect(core.Options{Algorithm: core.AlgOBJ})
		if err != nil {
			return nil, err
		}
		eucSet := make(map[joins.Key]struct{}, len(eucPairs))
		for _, p := range eucPairs {
			eucSet[joins.Key{PID: p.P.ID, QID: p.Q.ID}] = struct{}{}
		}
		rows = append(rows, NetworkRow{
			GridSide:     side,
			Points:       nPts,
			NetworkPairs: int64(len(netSet)),
			EuclidPairs:  int64(len(eucSet)),
			Common:       overlap(netSet, eucSet),
			Candidates:   stats.Candidates,
			SettledNodes: stats.SettledNodes,
		})
	}
	printNetwork(cfg, rows)
	return rows, nil
}

func printNetwork(cfg Config, rows []NetworkRow) {
	fmt.Fprintln(cfg.W, "Road-network RCJ (future work §6): Euclidean result resemblance to the network result")
	tw := tabwriter.NewWriter(cfg.W, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "grid\tpoints/side\tnetwork pairs\teuclid pairs\tprecision(%%)\trecall(%%)\tfilter candidates\n")
	for _, r := range rows {
		fmt.Fprintf(tw, "%dx%d\t%d\t%d\t%d\t%.1f\t%.1f\t%d\n",
			r.GridSide, r.GridSide, r.Points, r.NetworkPairs, r.EuclidPairs,
			r.Precision(), r.Recall(), r.Candidates)
	}
	tw.Flush()
	fmt.Fprintln(cfg.W)
}

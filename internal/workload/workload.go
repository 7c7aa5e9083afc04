// Package workload generates the evaluation datasets of Section 5: uniform
// synthetic pointsets (UI data), Gaussian-cluster synthetic pointsets, and
// "real-like" stand-ins for the USGS Board on Geographic Names pointsets the
// paper joins (PP: populated places, SC: schools, LO: locales).
//
// The real USGS extracts are not redistributable here, so RealLike
// synthesizes datasets with the properties the experiments depend on — heavy
// spatial skew, shared geography between the joined sets, and the original
// cardinalities — as documented in DESIGN.md. All coordinates are normalized
// to [0, Domain]², the paper's [0, 10000] interval.
package workload

import (
	"math"
	"math/rand"

	"repro/internal/geom"
	"repro/internal/rtree"
)

// Domain is the side length of the normalized coordinate space.
const Domain = 10000.0

// Paper cardinalities of the real datasets (Table 2).
const (
	CardPP = 177983 // Populated Places
	CardSC = 172188 // Schools
	CardLO = 128476 // Locales
)

// Uniform returns n points distributed uniformly at random in the domain
// (the paper's UI data), with ids 0..n-1.
func Uniform(n int, seed int64) []rtree.PointEntry {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]rtree.PointEntry, n)
	for i := range pts {
		pts[i] = rtree.PointEntry{
			P:  geom.Point{X: rng.Float64() * Domain, Y: rng.Float64() * Domain},
			ID: int64(i),
		}
	}
	return pts
}

// GaussianClusters returns n points in w equally sized clusters whose
// centers are uniform in the domain; points follow a Gaussian around their
// center with the given standard deviation per dimension (the paper's
// Figure 18 generator, σ = 1000). Out-of-domain samples are clamped, keeping
// the normalization invariant.
func GaussianClusters(n, w int, sigma float64, seed int64) []rtree.PointEntry {
	rng := rand.New(rand.NewSource(seed))
	return gaussianSamples(rng, clusterCenters(rng, w), n, sigma)
}

// GaussianClusterPair returns two n-point sets around the same w centers:
// the first is GaussianClusters(n, w, sigma, seed), the second continues its
// random stream. Figure 18 joins such a pair, so both sides share their
// clusters instead of landing as disjoint blobs.
func GaussianClusterPair(n, w int, sigma float64, seed int64) (a, b []rtree.PointEntry) {
	rng := rand.New(rand.NewSource(seed))
	centers := clusterCenters(rng, w)
	return gaussianSamples(rng, centers, n, sigma), gaussianSamples(rng, centers, n, sigma)
}

func clusterCenters(rng *rand.Rand, w int) []geom.Point {
	centers := make([]geom.Point, max(w, 1))
	for i := range centers {
		centers[i] = geom.Point{X: rng.Float64() * Domain, Y: rng.Float64() * Domain}
	}
	return centers
}

// gaussianSamples draws point i around centers[i mod len(centers)].
func gaussianSamples(rng *rand.Rand, centers []geom.Point, n int, sigma float64) []rtree.PointEntry {
	pts := make([]rtree.PointEntry, n)
	for i := range pts {
		c := centers[i%len(centers)]
		pts[i] = rtree.PointEntry{
			P: geom.Point{
				X: clamp(c.X+rng.NormFloat64()*sigma, 0, Domain),
				Y: clamp(c.Y+rng.NormFloat64()*sigma, 0, Domain),
			},
			ID: int64(i),
		}
	}
	return pts
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// RealDataset names one of the USGS pointsets the paper evaluates on.
type RealDataset string

// The three real datasets of Table 2.
const (
	PP RealDataset = "PP" // Populated Places, 177,983 points
	SC RealDataset = "SC" // Schools, 172,188 points
	LO RealDataset = "LO" // Locales, 128,476 points
)

// Cardinality returns the paper's cardinality for the dataset (Table 2).
func (d RealDataset) Cardinality() int {
	switch d {
	case PP:
		return CardPP
	case SC:
		return CardSC
	case LO:
		return CardLO
	default:
		return 0
	}
}

// regionSeed fixes the shared settlement geography: all real-like datasets
// draw their cluster centers from the same underlying "population map", so
// schools appear near populated places the way the USGS datasets co-locate.
// This is the property the join experiments depend on.
const regionSeed = 0x5EED0FFA

// perDatasetSeed decorrelates the individual points of each dataset.
func (d RealDataset) perDatasetSeed() int64 {
	switch d {
	case PP:
		return 101
	case SC:
		return 202
	case LO:
		return 303
	default:
		return 404
	}
}

// RealLike synthesizes a stand-in for the named USGS dataset at a given
// cardinality (pass 0 for the paper's cardinality). The generator is a
// mixture model over a shared geography:
//
//   - A fixed set of "settlement" centers with power-law weights (a few big
//     metropolitan clusters, a long tail of small towns) is drawn once from
//     regionSeed and reused by every dataset, so the three datasets overlap
//     spatially the way real amenities do.
//   - 85% of points belong to a settlement, with Gaussian spread
//     proportional to the settlement's weight (big cities are wider).
//   - 15% of points are uniform background (rural noise).
//
// Scale controls only the number of points, not the geography: a 10% sample
// keeps the same skew, which is what lets scaled experiment runs preserve
// the paper's curve shapes.
func RealLike(d RealDataset, n int) []rtree.PointEntry {
	if n <= 0 {
		n = d.Cardinality()
	}
	const (
		numSettlements = 400
		clusteredFrac  = 0.85
	)
	region := rand.New(rand.NewSource(regionSeed))
	type settlement struct {
		center geom.Point
		sigma  float64
		weight float64
	}
	settlements := make([]settlement, numSettlements)
	cum := make([]float64, numSettlements)
	total := 0.0
	for i := range settlements {
		// Zipf-like weights: w_i ∝ 1/(i+1)^0.8.
		w := 1.0 / math.Pow(float64(i+1), 0.8)
		settlements[i] = settlement{
			center: geom.Point{X: region.Float64() * Domain, Y: region.Float64() * Domain},
			sigma:  20 + 350*w, // big settlements are geographically wider
			weight: w,
		}
		total += w
		cum[i] = total
	}

	rng := rand.New(rand.NewSource(d.perDatasetSeed()))
	pts := make([]rtree.PointEntry, n)
	for i := range pts {
		var p geom.Point
		if rng.Float64() < clusteredFrac {
			s := settlements[searchCum(cum, rng.Float64()*total)]
			p = geom.Point{
				X: clamp(s.center.X+rng.NormFloat64()*s.sigma, 0, Domain),
				Y: clamp(s.center.Y+rng.NormFloat64()*s.sigma, 0, Domain),
			}
		} else {
			p = geom.Point{X: rng.Float64() * Domain, Y: rng.Float64() * Domain}
		}
		pts[i] = rtree.PointEntry{P: p, ID: int64(i)}
	}
	return pts
}

// searchCum returns the first index whose cumulative weight exceeds target.
func searchCum(cum []float64, target float64) int {
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Package joins implements the conventional distance-based spatial join
// operators the paper contrasts RCJ against in Section 5.1: the ε-distance
// join [Brinkhoff et al., SIGMOD 93], the k-closest-pairs join [Corral et
// al., SIGMOD 00] and the k-nearest-neighbor join [Xia et al., VLDB 04].
// Their result sets feed the precision/recall resemblance study of Figures
// 10–12.
package joins

import (
	"repro/internal/rtree"
)

// Pair is one result of a distance-based join: two points and their
// distance.
type Pair struct {
	P    rtree.PointEntry
	Q    rtree.PointEntry
	Dist float64
}

// Key identifies a pair by the ids of its endpoints (P and Q namespaces are
// independent). It is the unit of the precision/recall comparison.
type Key struct {
	PID, QID int64
}

// KeyOf returns the identity key of a pair.
func KeyOf(p Pair) Key { return Key{PID: p.P.ID, QID: p.Q.ID} }

// Package quality computes the information-theoretic resemblance measures of
// Section 5.1: precision and recall of one join's result set with respect to
// another's, over pair identities.
package quality

import "repro/internal/joins"

// PR holds a precision/recall pair, in percent as the paper plots them.
type PR struct {
	Precision float64
	Recall    float64
}

// PrecisionRecall returns the precision and recall of the candidate set got
// with respect to the reference set want:
//
//	precision = |want ∩ got| / |got| · 100%
//	recall    = |want ∩ got| / |want| · 100%
//
// Empty sets yield 0 for the measure whose denominator vanishes.
func PrecisionRecall(want, got map[joins.Key]struct{}) PR {
	var inter int
	// Iterate over the smaller set.
	a, b := want, got
	if len(b) < len(a) {
		a, b = b, a
	}
	for k := range a {
		if _, ok := b[k]; ok {
			inter++
		}
	}
	var pr PR
	if len(got) > 0 {
		pr.Precision = 100 * float64(inter) / float64(len(got))
	}
	if len(want) > 0 {
		pr.Recall = 100 * float64(inter) / float64(len(want))
	}
	return pr
}

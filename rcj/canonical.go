package rcj

import (
	"math"
	"strconv"
	"strings"
)

// Canonical returns a stable textual form of the query's result-shaping
// fields — resolved algorithm, metric, predicates, TopK, Limit — for use as a cache key: two queries with equal Canonical strings produce
// the same result set over the same index generation. Float predicates are
// rendered by exact bit pattern, so no two distinct bounds collide.
func (q Query) Canonical() string {
	var b strings.Builder
	b.WriteString("alg=")
	b.WriteString(q.algorithm().String())
	b.WriteString(";metric=")
	b.WriteString(strconv.Itoa(int(q.Metric)))
	b.WriteString(";md=")
	b.WriteString(strconv.FormatUint(math.Float64bits(q.MaxDiameter), 16))
	b.WriteString(";mind=")
	b.WriteString(strconv.FormatUint(math.Float64bits(q.MinDistance), 16))
	b.WriteString(";reg=")
	if r := q.Region; r != nil {
		b.WriteString(strconv.FormatUint(math.Float64bits(r.MinX), 16))
		b.WriteByte(',')
		b.WriteString(strconv.FormatUint(math.Float64bits(r.MinY), 16))
		b.WriteByte(',')
		b.WriteString(strconv.FormatUint(math.Float64bits(r.MaxX), 16))
		b.WriteByte(',')
		b.WriteString(strconv.FormatUint(math.Float64bits(r.MaxY), 16))
	} else {
		b.WriteString("nil")
	}
	b.WriteString(";k=")
	b.WriteString(strconv.Itoa(q.TopK))
	b.WriteString(";lim=")
	b.WriteString(strconv.Itoa(q.Limit))
	if q.Weight != nil {
		// Weight functions are opaque: the marker keeps weighted runs from
		// colliding with the diameter ranking, but two different weight
		// functions still canonicalize alike — weighted queries must not be
		// cached by Canonical alone (the daemon's result cache excludes them).
		b.WriteString(";w=1")
	}
	return b.String()
}

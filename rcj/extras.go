package rcj

import (
	"repro/internal/buffer"
	"repro/internal/core"
)

// VerifyPair checks the ring constraint for one specific candidate pair
// without running the full join: it reports whether the smallest circle
// enclosing p (from the p index's dataset) and q (from the q index's
// dataset) covers no other point of either dataset. Use it to validate a
// proposed middleman location. On a mutable index the check runs against
// the epoch current at the call, like a join's traversal.
func VerifyPair(q, p *Index, pPoint, qPoint Point) (bool, error) {
	var rec buffer.TagStats
	var coreOpts core.Options
	tq, tp, release, err := joinViews(q, p, &rec, &coreOpts)
	if err != nil {
		return false, err
	}
	defer release()
	return core.VerifyPair(tq, tp, pPoint.entry(), qPoint.entry(), coreOpts.SelfJoin)
}

// IndexStats describes the physical shape of an index.
type IndexStats struct {
	// Points is the number of indexed points.
	Points int
	// Height is the number of tree levels (1 = the root is a leaf).
	Height int
	// Pages is the number of disk pages the index occupies.
	Pages int
	// PageSize is the page size in bytes.
	PageSize int
}

// Stats returns the physical shape of the index. A mutable index has no one
// tree to describe — its sealed base and in-memory delta change with every
// batch and compaction — so it reports its current point count only;
// LiveStats has the epoch decomposition.
func (ix *Index) Stats() IndexStats {
	if ls, ok := ix.LiveStats(); ok {
		return IndexStats{Points: ls.Points}
	}
	return IndexStats{
		Points:   ix.pts,
		Height:   ix.tree.Height(),
		Pages:    ix.tree.NumPages(),
		PageSize: ix.pager.PageSize(),
	}
}

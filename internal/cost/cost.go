// Package cost implements the paper's execution-time model (Section 5): the
// total cost of an algorithm decomposes into I/O time — page faults charged
// at 10 ms each, "a typical value" — and CPU time, which "roughly models the
// total number (including repeated) of R-tree node accesses". The harness
// derives I/O time from the buffer pool's fault counter and measures CPU
// time as wall time minus the pool's measured miss-load wait, so backends
// whose faults take real time (file, HTTP) are charged once — at the
// modeled rate — rather than both modeled and measured.
package cost

import (
	"fmt"
	"time"

	"repro/internal/buffer"
)

// PageFaultCost is the charge per page fault, following the paper.
const PageFaultCost = 10 * time.Millisecond

// ExpectedUniformResultSize is the closed-form RCJ result-size model for
// independent uniform (Poisson) inputs, addressing the paper's open
// question on the theoretical result cardinality (Section 6).
//
// Model: for intensities λP = nP/A and λQ = nQ/A, a pair at distance s
// qualifies iff the disk of diameter s (area πs²/4) is empty of the other
// nP+nQ−2 points, which for a Poisson process has probability
// exp(−(λP+λQ)πs²/4). Integrating over the distance distribution of all
// nP·nQ pairs:
//
//	E|RCJ| = λP·λQ·A ∫₀^∞ 2πs·exp(−(λP+λQ)πs²/4) ds = 4·nP·nQ/(nP+nQ).
//
// The area cancels: the expectation depends only on the cardinalities. The
// formula reproduces the paper's empirical findings exactly — linear growth
// in n for |P| = |Q| = n (E = 2n, Figure 16) and maximization at the
// balanced cardinality split for fixed nP+nQ (Figure 17). Boundary effects
// make finite-domain measurements run a few percent below it.
func ExpectedUniformResultSize(nP, nQ int) float64 {
	if nP <= 0 || nQ <= 0 {
		return 0
	}
	return 4 * float64(nP) * float64(nQ) / float64(nP+nQ)
}

// Breakdown is the measured cost of one algorithm run.
type Breakdown struct {
	// IOTime is Faults × PageFaultCost, the paper's modeled I/O charge.
	IOTime time.Duration
	// CPUTime is the measured computation time of the run: wall time minus
	// MeasuredIO. On backends where faults take real time (file, HTTP) this
	// keeps fetch latency out of the CPU column, so Total does not charge
	// it twice — once as wall time and once as the modeled 10 ms/fault.
	// Clamped at zero when concurrent loads overlap enough that their
	// summed waits exceed wall time.
	CPUTime time.Duration
	// MeasuredIO is the real time the run spent blocked in pager loads
	// (buffer misses), summed across workers. Zero for purely in-memory
	// pagers, where the modeled IOTime is the only I/O estimate.
	MeasuredIO time.Duration
	// Faults is the number of page faults (buffer misses).
	Faults int64
	// NodeAccesses is the number of logical R-tree node accesses,
	// including buffer hits.
	NodeAccesses int64
}

// Total returns modeled I/O plus CPU time.
func (b Breakdown) Total() time.Duration { return b.IOTime + b.CPUTime }

// FaultLatency returns the measured mean wait per page fault, or zero when
// the run had no faults. It is the planner's calibration signal: when
// nonzero it replaces the paper's fixed PageFaultCost with what this
// backend actually charges.
func (b Breakdown) FaultLatency() time.Duration {
	if b.Faults == 0 {
		return 0
	}
	return b.MeasuredIO / time.Duration(b.Faults)
}

// String formats the breakdown the way the paper's bar charts decompose it.
func (b Breakdown) String() string {
	return fmt.Sprintf("total=%v (io=%v cpu=%v measured_io=%v faults=%d accesses=%d)",
		b.Total().Round(time.Millisecond), b.IOTime.Round(time.Millisecond),
		b.CPUTime.Round(time.Millisecond), b.MeasuredIO.Round(time.Millisecond),
		b.Faults, b.NodeAccesses)
}

// Meter snapshots a buffer pool's counters so a run's deltas can be
// converted into a Breakdown.
type Meter struct {
	pool  *buffer.Pool
	base  buffer.Stats
	start time.Time
}

// NewMeter starts measuring against the pool's current counters.
func NewMeter(pool *buffer.Pool) *Meter {
	return &Meter{pool: pool, base: pool.Stats(), start: time.Now()}
}

// Stop returns the cost accumulated since NewMeter. The run's real I/O
// wait (the pool's accumulated miss-load time) is subtracted from wall
// time before it is reported as CPUTime, so backends with synchronous
// fault latency are not double-counted against the modeled per-fault
// charge.
func (m *Meter) Stop() Breakdown {
	elapsed := time.Since(m.start)
	now := m.pool.Stats()
	faults := now.Misses - m.base.Misses
	measured := time.Duration(now.LoadNanos - m.base.LoadNanos)
	cpu := elapsed - measured
	if cpu < 0 {
		cpu = 0
	}
	return Breakdown{
		IOTime:       time.Duration(faults) * PageFaultCost,
		CPUTime:      cpu,
		MeasuredIO:   measured,
		Faults:       faults,
		NodeAccesses: now.Accesses - m.base.Accesses,
	}
}

package sched

import (
	"context"
	"testing"
	"time"

	"repro/rcj"
)

// TestHistogramBucketPinning pins the bucket layout and the le-semantics of
// observe: each known duration must land in exactly one known bucket, so a
// dashboard built against these bounds never silently shifts.
func TestHistogramBucketPinning(t *testing.T) {
	var h histogram
	obs := []struct {
		d      time.Duration
		bucket int
	}{
		{500 * time.Microsecond, 0},
		{time.Millisecond, 0}, // bounds are inclusive (le), like Prometheus
		{3 * time.Millisecond, 2},
		{40 * time.Millisecond, 5},
		{300 * time.Millisecond, 8},
		{20 * time.Second, 13},
		{2 * time.Minute, numBuckets - 1}, // +Inf overflow bucket
	}
	for _, o := range obs {
		h.observe(o.d)
	}
	snap := h.snapshot()
	want := make([]int64, numBuckets)
	for _, o := range obs {
		want[o.bucket]++
	}
	for i := range want {
		if snap.Counts[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d (snapshot %+v)", i, snap.Counts[i], want[i], snap.Counts)
		}
	}
	if snap.Count != int64(len(obs)) {
		t.Fatalf("Count = %d, want %d", snap.Count, len(obs))
	}
	var sum time.Duration
	for _, o := range obs {
		sum += o.d
	}
	if got := snap.SumSeconds; got < sum.Seconds()-1e-9 || got > sum.Seconds()+1e-9 {
		t.Fatalf("SumSeconds = %v, want %v", got, sum.Seconds())
	}
	if len(snap.BoundsSeconds) != numBuckets-1 {
		t.Fatalf("%d bounds for %d buckets", len(snap.BoundsSeconds), numBuckets)
	}
}

// TestSchedulerHistograms checks the scheduler feeds both histograms: every
// admitted request contributes one queue-wait observation, every terminated
// join one latency observation, and the per-bucket counts always sum to the
// totals.
func TestSchedulerHistograms(t *testing.T) {
	eng, q, p := newTestEngine(t)
	s := New(eng, Config{MaxConcurrent: 2, MaxQueue: 8})
	ctx := context.Background()
	const joins = 4
	for i := 0; i < joins; i++ {
		seq, err := s.Run(ctx, q, p, rcj.Query{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rcj.Collect(seq); err != nil {
			t.Fatal(err)
		}
	}
	snap := s.Snapshot()
	if snap.QueueWait.Count != joins {
		t.Fatalf("QueueWait.Count = %d, want %d (one per admitted request)", snap.QueueWait.Count, joins)
	}
	if snap.JoinLatency.Count != joins {
		t.Fatalf("JoinLatency.Count = %d, want %d (one per terminated join)", snap.JoinLatency.Count, joins)
	}
	for _, h := range []HistogramSnapshot{snap.QueueWait, snap.JoinLatency} {
		var sum int64
		for _, c := range h.Counts {
			sum += c
		}
		if sum != h.Count {
			t.Fatalf("bucket counts sum to %d, Count = %d (%+v)", sum, h.Count, h)
		}
	}
	// Uncontended admissions pass through in far under a millisecond: the
	// waits must pile up in the lowest bucket.
	if snap.QueueWait.Counts[0] != joins {
		t.Fatalf("immediate grants not in the lowest bucket: %+v", snap.QueueWait.Counts)
	}
}

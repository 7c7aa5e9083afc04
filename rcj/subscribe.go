package rcj

import (
	"context"
	"errors"
	"sync"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// ErrSlowSubscriber terminates a subscription whose consumer fell behind:
// the index's bounded update feed overflowed and was shed rather than
// allowed to stall writers. The consumer should resubscribe (and read
// faster, or use a larger buffer).
var ErrSlowSubscriber = errors.New("rcj: subscription shed: consumer fell behind")

// EventType tags one subscription stream event.
type EventType string

const (
	// EventAdd delivers a pair newly in the result set (also used for the
	// initial state and after a resync).
	EventAdd EventType = "add"
	// EventRemove delivers a pair no longer in the result set.
	EventRemove EventType = "remove"
	// EventSync marks the end of a full-state replay (initial or after
	// resync): the events so far reproduce the exact current result set.
	EventSync EventType = "sync"
	// EventResync tells the consumer to discard its replayed state: a
	// deletion forced a monitor rebuild (insertion maintenance is exact and
	// local, deletion maintenance is impossible — core.ErrMonitorDelete), and the
	// full current result set follows as EventAdd events ending in
	// EventSync.
	EventResync EventType = "resync"
)

// Event is one element of a subscription stream. Replaying a stream —
// apply adds and removes in order, clear on resync — reproduces the
// monitor's exact pair set at every sync point.
type Event struct {
	Type EventType
	// Seq is the epoch sequence of the mutation that caused the event (the
	// current sequence for initial/sync/resync events).
	Seq uint64
	// Pair is set on add/remove events.
	Pair Pair
	// Pairs is the current result-set size, set on sync events.
	Pairs int
}

// Subscription is one live continuous query: a stream of exact result-set
// changes as the underlying mutable indexes evolve. C closes when the
// subscription ends — consumer Close, context cancellation, index close, or
// shedding — after which Err reports why (nil for a clean end).
type Subscription struct {
	C <-chan Event

	cancel context.CancelFunc
	done   chan struct{}
	mu     sync.Mutex
	err    error
}

// Err reports why the stream ended; valid after C closes.
func (s *Subscription) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close detaches the subscription; C closes promptly.
func (s *Subscription) Close() {
	s.cancel()
	<-s.done
}

func (s *Subscription) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
}

// SubscribeLive opens a continuous query over the datasets of q and p (pass
// the same index twice for a self-join): the stream first replays the
// current result set (EventAdd… EventSync), then delivers exact incremental
// changes as mutation batches apply — insertions via the monitor's local
// maintenance, deletions via a monitor rebuild announced with EventResync.
// At least one side must be mutable; an immutable side contributes a frozen
// dataset. buf bounds both the event channel and the per-subscription
// update feed; a consumer that falls behind is shed with ErrSlowSubscriber.
func SubscribeLive(ctx context.Context, q, p *Index, buf int) (*Subscription, error) {
	self := selfJoin(q, p)
	if q.live == nil && (self || p.live == nil) {
		return nil, ErrImmutableIndex
	}
	if buf <= 0 {
		buf = 64
	}

	st := &subState{q: q, p: p}
	var err error
	if q.live != nil {
		st.feedQ, st.seqQ, st.entriesQ, err = q.live.NewFeed(buf)
		if err != nil {
			return nil, err
		}
	} else if st.entriesQ, err = q.tree.ScanAll(); err != nil {
		return nil, err
	}
	if !self {
		if p.live != nil {
			st.feedP, st.seqP, st.entriesP, err = p.live.NewFeed(buf)
			if err != nil {
				st.detach()
				return nil, err
			}
		} else if st.entriesP, err = p.tree.ScanAll(); err != nil {
			st.detach()
			return nil, err
		}
	}

	ctx, cancel := context.WithCancel(ctx)
	out := make(chan Event, buf)
	sub := &Subscription{C: out, cancel: cancel, done: make(chan struct{})}
	go st.loop(ctx, sub, out)
	return sub, nil
}

// subState is the subscription event loop's working set.
type subState struct {
	q, p *Index // the same index twice: a self-join, fed by feedQ alone

	feedQ, feedP       *live.Feed // nil for an immutable (or self-collapsed) side
	seqQ, seqP         uint64     // snapshot seqs; buffered updates at or below are stale
	entriesQ, entriesP []rtree.PointEntry

	mon *core.Monitor
}

func (st *subState) detach() {
	if st.feedQ != nil {
		st.q.live.CloseFeed(st.feedQ)
	}
	if st.feedP != nil {
		st.p.live.CloseFeed(st.feedP)
	}
}

// curSeq is the newest epoch sequence the subscription has incorporated.
func (st *subState) curSeq() uint64 {
	if st.seqP > st.seqQ {
		return st.seqP
	}
	return st.seqQ
}

func (st *subState) loop(ctx context.Context, sub *Subscription, out chan<- Event) {
	defer close(sub.done)
	defer close(out)
	defer st.detach()

	send := func(ev Event) bool {
		select {
		case out <- ev:
			return true
		case <-ctx.Done():
			return false
		}
	}

	// sendState replays the monitor's full current result set (sorted for a
	// deterministic event log) followed by a sync marker.
	sendState := func() bool {
		pairs := fromCorePairs(st.mon.Pairs())
		SortPairsByDiameter(pairs)
		seq := st.curSeq()
		for _, pr := range pairs {
			if !send(Event{Type: EventAdd, Seq: seq, Pair: pr}) {
				return false
			}
		}
		return send(Event{Type: EventSync, Seq: seq, Pairs: len(pairs)})
	}

	if err := st.seed(); err != nil {
		sub.fail(err)
		return
	}
	if !sendState() {
		return
	}

	// feedC returns a side's update channel; a nil feed yields a nil channel
	// (never selected).
	var chQ, chP chan live.Update
	if st.feedQ != nil {
		chQ = st.feedQ.C
	}
	if st.feedP != nil {
		chP = st.feedP.C
	}

	apply := func(u live.Update, intoQ bool) bool {
		skip := st.seqQ
		if !intoQ {
			skip = st.seqP
		}
		if u.Seq <= skip {
			return true // stale: already covered by a (re)snapshot
		}
		if intoQ {
			st.seqQ = u.Seq
		} else {
			st.seqP = u.Seq
		}
		if len(u.Del) > 0 {
			// Deletion cannot be maintained locally (core.ErrMonitorDelete):
			// re-seed the monitor from fresh snapshots and replay the state.
			if err := st.reseed(); err != nil {
				if !errors.Is(err, live.ErrClosed) {
					// Index closed underneath: the stream is ending anyway —
					// same clean end as the feed-close path.
					sub.fail(err)
				}
				return false
			}
			if !send(Event{Type: EventResync, Seq: st.curSeq()}) {
				return false
			}
			return sendState()
		}
		for _, e := range u.Ins {
			var added, removed []core.Pair
			var err error
			if intoQ && !selfJoin(st.q, st.p) {
				added, removed, err = st.mon.AddQ(e.P, e.ID)
			} else {
				added, removed, err = st.mon.AddP(e.P, e.ID)
			}
			if err != nil {
				sub.fail(err)
				return false
			}
			for _, pr := range sortedEvents(removed) {
				if !send(Event{Type: EventRemove, Seq: u.Seq, Pair: pr}) {
					return false
				}
			}
			for _, pr := range sortedEvents(added) {
				if !send(Event{Type: EventAdd, Seq: u.Seq, Pair: pr}) {
					return false
				}
			}
		}
		return true
	}

	for {
		select {
		case <-ctx.Done():
			return
		case u, ok := <-chQ:
			if !ok {
				if st.feedQ.Shed() {
					sub.fail(ErrSlowSubscriber)
				}
				return
			}
			if !apply(u, true) {
				return
			}
		case u, ok := <-chP:
			if !ok {
				if st.feedP.Shed() {
					sub.fail(ErrSlowSubscriber)
				}
				return
			}
			if !apply(u, false) {
				return
			}
		}
	}
}

// seed builds the monitor over the current snapshots.
func (st *subState) seed() error {
	tq, err := monitorTree(st.entriesQ)
	if err != nil {
		return err
	}
	tp := tq
	if !selfJoin(st.q, st.p) {
		if tp, err = monitorTree(st.entriesP); err != nil {
			return err
		}
	}
	st.mon, err = core.NewMonitor(tq, tp)
	return err
}

// reseed refreshes both live sides' snapshots and rebuilds the monitor —
// the deletion path. Updates already buffered at or below the new snapshot
// seqs are skipped by apply.
func (st *subState) reseed() error {
	var err error
	if st.q.live != nil {
		if st.seqQ, st.entriesQ, err = st.q.live.Resnapshot(); err != nil {
			return err
		}
	}
	if !selfJoin(st.q, st.p) && st.p.live != nil {
		if st.seqP, st.entriesP, err = st.p.live.Resnapshot(); err != nil {
			return err
		}
	}
	return st.seed()
}

// monitorTree bulk-loads a private in-memory tree the monitor may mutate.
func monitorTree(entries []rtree.PointEntry) (*rtree.Tree, error) {
	ps := storage.DefaultPageSize
	t, err := rtree.New(storage.NewMemPager(ps), buffer.NewPool(-1), rtree.Config{PageSize: ps})
	if err != nil {
		return nil, err
	}
	if len(entries) == 0 {
		return t, nil
	}
	if err := t.BulkLoad(entries, 0); err != nil {
		return nil, err
	}
	return t, nil
}

// sortedEvents orders one maintenance step's pair delta deterministically.
func sortedEvents(raw []core.Pair) []Pair {
	out := fromCorePairs(raw)
	SortPairsByDiameter(out)
	return out
}

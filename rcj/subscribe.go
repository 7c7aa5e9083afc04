package rcj

import (
	"context"
	"errors"
	"maps"
	"slices"
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
	// initial state).
	EventAdd EventType = "add"
	// EventRemove delivers a pair no longer in the result set.
	EventRemove EventType = "remove"
	// EventSync closes the initial replay and every mutation batch's
	// changes: the events so far reproduce the exact current result set.
	EventSync EventType = "sync"
)

// Event is one element of a subscription stream. Replaying a stream —
// apply adds and removes in order — reproduces the monitor's exact pair set
// at every sync point.
type Event struct {
	Type EventType
	// Seq is the epoch sequence of the mutation batch that caused the event
	// (the subscription's starting sequence for the initial replay).
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
// current result set (EventAdd… EventSync), then delivers each mutation
// batch's exact changes as it applies — its EventRemove events, then its
// EventAdd events, then one EventSync — maintained locally by core.Monitor.
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
	seqQ, seqP         uint64     // the sides' snapshot seqs
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

	// sendChanges sends pairs as events of one type in a deterministic
	// order.
	sendChanges := func(typ EventType, seq uint64, pairs []core.Pair) bool {
		for _, pr := range sortedEvents(pairs) {
			if !send(Event{Type: typ, Seq: seq, Pair: pr}) {
				return false
			}
		}
		return true
	}

	if err := st.seed(); err != nil {
		sub.fail(err)
		return
	}
	seq := max(st.seqQ, st.seqP)
	if !sendChanges(EventAdd, seq, st.mon.Pairs()) || !send(Event{Type: EventSync, Seq: seq, Pairs: st.mon.Len()}) {
		return
	}

	// A nil feed yields a nil channel (never selected).
	var chQ, chP chan live.Update
	if st.feedQ != nil {
		chQ = st.feedQ.C
	}
	if st.feedP != nil {
		chP = st.feedP.C
	}

	// apply maintains the monitor through one batch (deletes first, as the
	// index applies them) and sends its net changes: a pair one step adds
	// and a later step removes is never sent.
	apply := func(u live.Update, intoQ bool) bool {
		del, add := st.mon.DeleteP, st.mon.AddP
		if intoQ && !selfJoin(st.q, st.p) {
			del, add = st.mon.DeleteQ, st.mon.AddQ
		}
		removed, added := map[[2]int64]core.Pair{}, map[[2]int64]core.Pair{}
		for i, e := range slices.Concat(u.Del, u.Ins) {
			op := add
			if i < len(u.Del) {
				op = del
			}
			a, r, err := op(e.P, e.ID)
			if err != nil {
				sub.fail(err)
				return false
			}
			for _, pr := range r {
				k := [2]int64{pr.P.ID, pr.Q.ID}
				if _, ok := added[k]; ok {
					delete(added, k)
				} else {
					removed[k] = pr
				}
			}
			for _, pr := range a {
				added[[2]int64{pr.P.ID, pr.Q.ID}] = pr
			}
		}
		return sendChanges(EventRemove, u.Seq, slices.Collect(maps.Values(removed))) &&
			sendChanges(EventAdd, u.Seq, slices.Collect(maps.Values(added))) &&
			send(Event{Type: EventSync, Seq: u.Seq, Pairs: st.mon.Len()})
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

// seed builds the monitor over the snapshots.
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

// Package stream bridges a callback-producing join into a pull-based
// iterator. It exists because every streaming surface of this repo
// (rcj.Engine.Run, rcjnet.JoinSeq) needs the same subtle goroutine
// lifecycle: a producer emitting through a bounded channel, cancellation on
// early break, and a guarantee that the producer goroutine is joined before
// the iterator returns.
package stream

import (
	"context"
	"iter"
)

// Seq2 runs produce in a goroutine and returns an iterator over the values
// it emits, terminated by produce's error (if any). The contract:
//
//   - emit blocks while the consumer is behind (bounded by buffer) and
//     returns without delivering once ctx is cancelled.
//   - Cancelling parent, or breaking out of the range loop, cancels the
//     ctx passed to produce; produce is expected to notice and return.
//   - The producer goroutine is always joined before the iterator returns,
//     so no goroutine outlives the range loop.
//   - A non-nil error from produce is yielded as the final element (with a
//     zero value), unless the consumer already broke out.
func Seq2[T any](parent context.Context, buffer int, produce func(ctx context.Context, emit func(T)) error) iter.Seq2[T, error] {
	if parent == nil {
		parent = context.Background()
	}
	return func(yield func(T, error) bool) {
		ctx, cancel := context.WithCancel(parent)
		defer cancel()

		ch := make(chan T, buffer)
		done := make(chan error, 1)
		emit := func(v T) {
			select {
			case ch <- v:
			case <-ctx.Done():
				// The consumer is gone; the producer observes ctx and
				// unwinds on its own.
			}
		}
		go func() {
			done <- produce(ctx, emit)
			close(ch)
		}()

		for v := range ch {
			if !yield(v, nil) {
				cancel()
				for range ch {
				}
				<-done
				return
			}
		}
		if err := <-done; err != nil {
			var zero T
			yield(zero, err)
		}
	}
}

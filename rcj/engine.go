package rcj

import (
	"iter"
	"sync/atomic"

	"repro/internal/buffer"
	"repro/internal/storage"
)

// Engine is a long-lived query engine serving many concurrent
// ring-constrained joins over immutable indexes. All indexes built through
// Engine.BuildIndex share the engine's buffer pool — the paper's setting,
// where both join inputs compete for one memory budget — which is sharded
// over independently-locked LRU partitions so concurrent joins do not
// serialize on a single mutex.
//
// Typical service use:
//
//	eng := rcj.NewEngine(rcj.EngineConfig{BufferPages: 4096})
//	restaurants, _ := eng.BuildIndex(pointsP, rcj.IndexConfig{})
//	residences, _ := eng.BuildIndex(pointsQ, rcj.IndexConfig{})
//	for pair, err := range eng.Run(ctx, residences, restaurants, rcj.Query{}) {
//		if err != nil { ... }
//		serve(pair)
//	}
//
// The iterator streams pairs as the join confirms them; cancelling ctx (or
// breaking out of the loop) aborts the join promptly without leaking
// goroutines. Engine methods are safe for concurrent use; indexes are
// immutable after build and may be shared by any number of joins.
type Engine struct {
	pageSize  int
	pool      *buffer.Pool
	nextOwner atomic.Uint32
}

// EngineConfig sizes an Engine.
type EngineConfig struct {
	// PageSize is the page size of indexes built on this engine (default
	// 1024, the paper's setting).
	PageSize int
	// BufferPages bounds the shared LRU buffer in pages; <= 0 means
	// unbounded (everything cached).
	BufferPages int
	// BufferShards sets the number of independently-locked LRU shards the
	// buffer is split into. 0 picks a power of two covering GOMAXPROCS; 1
	// gives the single-lock pool with exact global LRU (the deterministic
	// choice for experiments).
	BufferShards int
}

// NewEngine returns an engine with an empty shared buffer pool.
func NewEngine(cfg EngineConfig) *Engine {
	if cfg.PageSize <= 0 {
		cfg.PageSize = storage.DefaultPageSize
	}
	capacity := cfg.BufferPages
	if capacity <= 0 {
		capacity = -1
	}
	return &Engine{
		pageSize: cfg.PageSize,
		pool:     buffer.NewShardedPool(capacity, cfg.BufferShards),
	}
}

// BuildIndex indexes the points in an R*-tree attached to the engine's
// shared buffer pool under a fresh owner id. cfg.BufferPages is ignored
// (the engine's buffer is shared); cfg.PageSize defaults to the engine's.
func (e *Engine) BuildIndex(points []Point, cfg IndexConfig) (*Index, error) {
	if cfg.PageSize <= 0 {
		cfg.PageSize = e.pageSize
	}
	return buildIndex(points, cfg, e.pool, e.nextOwner.Add(1), true)
}

// BufferStats returns the shared pool's cumulative access counters, summed
// exactly over its shards.
func (e *Engine) BufferStats() buffer.Stats { return e.pool.Stats() }

// BufferShards returns the number of LRU shards of the shared pool.
func (e *Engine) BufferShards() int { return e.pool.Shards() }

// streamBuffer is the channel depth between the join workers and the
// consuming iterator: deep enough to decouple bursts, small enough that a
// cancelled consumer stops the producer within a leaf or two.
const streamBuffer = 64

// Collect drains a streaming join into a slice, stopping at the first
// error. It is the bridge from the iterator form back to the slice-returning
// form: for any query, Collect(eng.Run(...)) returns exactly the pairs
// eng.RunCollect(...) does (in unspecified order when parallel, and without
// SortByDiameter).
func Collect(seq iter.Seq2[Pair, error]) ([]Pair, error) {
	var out []Pair
	for pr, err := range seq {
		if err != nil {
			return out, err
		}
		out = append(out, pr)
	}
	return out, nil
}

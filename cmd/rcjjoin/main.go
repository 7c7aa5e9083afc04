// Command rcjjoin computes the ring-constrained join of two pointsets and
// writes the result pairs — with their derived fair middleman locations —
// as CSV.
//
// Usage:
//
//	rcjjoin -p restaurants.csv -q residences.csv > stations.csv
//	rcjjoin -p buildings.csv -self > postboxes.csv         # self-join
//	rcjjoin -p a.csv -q b.csv -metric l1 -sort             # Manhattan, sorted
//	rcjjoin -p a.csv -q b.csv -parallel 8                  # force 8 workers
//
//	# Constrained queries (predicate pushdown — the index traversal is
//	# pruned, not the materialized result):
//	rcjjoin -p a.csv -q b.csv -top-k 10                    # the 10 tightest pairs
//	rcjjoin -p a.csv -q b.csv -max-diameter 250            # pairs at most 250 wide
//	rcjjoin -p a.csv -q b.csv -region 1000,1000,5000,5000  # middleman in window
//	rcjjoin -p a.csv -q b.csv -limit 100                   # first 100 pairs found
//
//	# Persist the built indexes, then join again without rebuilding:
//	rcjjoin -p a.csv -q b.csv -save-index-p a.rcjx -save-index-q b.rcjx > out.csv
//	rcjjoin -p a.rcjx -q b.rcjx -backend mem > out.csv
//
//	# Same, but write the compact packed v3 format (delta/varint leaf
//	# pages); every backend reads it transparently:
//	rcjjoin -p a.csv -q b.csv -save-index-p a.rcjx -save-packed > out.csv
//
//	# Join saved indexes served by any range-capable HTTP server — no
//	# shared filesystem; pages fetch lazily, checksum-verified, with async
//	# readahead:
//	rcjjoin -p https://indexes.example.com/a.rcjx -q https://indexes.example.com/b.rcjx > out.csv
//
//	# Dump an index's points back out as ID-sorted "id,x,y" CSV (the
//	# canonical rebuild input — re-indexing a dump reproduces the index):
//	rcjjoin -p a.rcjx -dump-points > a.csv
//
// Each of -p and -q accepts a CSV pointset ("id,x,y" or "x,y" rows, ids
// assigned in file order), a saved index file written by -save-index-*
// (detected by its magic, conventionally named ".rcjx"), or an http(s) URL
// of a saved index; index inputs skip the build entirely and are served
// through the backend chosen with -backend (URLs imply -backend http).
// Output rows are "p_id,q_id,center_x,center_y,radius", one per RCJ pair.
// Results stream as the join finds them — in a repeatable order only under
// -parallel 1, since by default the planner may fan the join out; -sort
// buffers them for ascending ring-diameter order instead. Interrupting the
// process (Ctrl-C) cancels the join cleanly.
package main

import (
	"bufio"
	"context"
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"path/filepath"

	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/shard"
	"repro/internal/workload"
	"repro/rcj"
)

func main() {
	var (
		pPath    = flag.String("p", "", "CSV file of dataset P (required)")
		qPath    = flag.String("q", "", "CSV file of dataset Q (omit with -self)")
		self     = flag.Bool("self", false, "compute the self-join of P")
		metric   = flag.String("metric", "l2", "distance metric: l2 (Euclidean) or l1 (Manhattan)")
		sorted   = flag.Bool("sort", false, "sort output by ascending ring diameter (buffers all pairs)")
		algStr   = flag.String("alg", "", "algorithm: auto, inj, obj, brute (default: auto — the cost-based planner decides)")
		parallel = flag.Int("parallel", 0, "worker goroutines for the join (0 = the planner decides; 1 makes the streamed row order repeatable)")
		bufPages = flag.Int("buffer", 0, "shared buffer pool size in pages (0 = unbounded)")
		saveP    = flag.String("save-index-p", "", "after building P's index, save it to this file (skip the build next run by passing it as -p)")
		saveQ    = flag.String("save-index-q", "", "after building Q's index, save it to this file")
		savePack = flag.Bool("save-packed", false, "write -save-index-* files in the packed v3 format (compressed leaf pages, ~half the size)")
		backend  = flag.String("backend", "file", "pager backend for saved-index inputs: mem, file, or http (implied by URL inputs)")
		timeout  = flag.Duration("timeout", 0, "abort the run after this long (0 = no deadline)")
		topK     = flag.Int("top-k", 0, "return only the k tightest pairs, in ascending ring-diameter order (pushdown)")
		maxDiam  = flag.Float64("max-diameter", 0, "return only pairs with ring diameter at most this (pushdown)")
		minDist  = flag.Float64("min-distance", 0, "drop pairs whose points are closer than this")
		limit    = flag.Int("limit", 0, "stop after this many pairs")
		region   = flag.String("region", "", "window the middleman location must fall in, as minX,minY,maxX,maxY (pushdown)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile at exit to this file")
		dumpPts  = flag.Bool("dump-points", false, "instead of joining, write P's points as ID-sorted id,x,y CSV and exit (-q not needed)")
		shardN   = flag.Int("save-shards", 0, "instead of joining, partition the inputs into this many spatial shards for a rcjd/rcjrouter deployment")
		shardOut = flag.String("shards-out", "", "manifest path for -save-shards (.rcjm; shard .rcjx files are written next to it)")
		shardD   = flag.Float64("shard-max-diameter", 0, "diameter bound baked into the -save-shards manifest (default: -max-diameter)")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatalf("-cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("-cpuprofile: %v", err)
		}
		profileStops = append(profileStops, func() {
			pprof.StopCPUProfile()
			f.Close()
		})
		defer stopProfiles()
	}
	if *memProf != "" {
		path := *memProf
		profileStops = append(profileStops, func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "rcjjoin: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live-heap accounting before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "rcjjoin: -memprofile: %v\n", err)
			}
		})
		defer stopProfiles()
	}

	if *pPath == "" || (!*self && !*dumpPts && *qPath == "") {
		fmt.Fprintln(os.Stderr, "rcjjoin: -p is required, and -q unless -self or -dump-points")
		flag.Usage()
		os.Exit(2)
	}
	if *self && *saveQ != "" {
		fatalf("-save-index-q has no effect with -self (Q is never loaded); use -save-index-p")
	}

	alg, ok := map[string]rcj.Algorithm{"": 0, "auto": 0, "inj": rcj.INJ, "obj": rcj.OBJ, "brute": rcj.Brute}[*algStr]
	if !ok {
		fatalf("unknown algorithm %q (want auto, inj, obj, or brute)", *algStr)
	}
	met, ok := map[string]rcj.Metric{"l2": rcj.L2, "l1": rcj.L1}[*metric]
	if !ok {
		fatalf("unknown metric %q (want l2 or l1)", *metric)
	}
	be, err := rcj.ParseBackend(*backend)
	if err != nil {
		fatalf("%v", err)
	}

	qry := rcj.Query{
		Algorithm:      alg,
		ForceAlgorithm: *algStr != "" && *algStr != "auto",
		Metric:         met,
		Parallelism:    *parallel,
		TopK:           *topK,
		MaxDiameter:    *maxDiam,
		MinDistance:    *minDist,
		Limit:          *limit,
	}
	var plan rcj.PlanDecision
	qry.PlanOut = &plan
	if *region != "" {
		qry.Region = parseRegion(*region)
	}
	if err := qry.Validate(); err != nil {
		fatalf("%v", err)
	}
	constrained := qry.TopK > 0 || qry.MaxDiameter > 0 || qry.MinDistance > 0 || qry.Limit > 0 || qry.Region != nil

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		// A deadline so batch runs against huge inputs fail cleanly instead
		// of hanging forever; the join aborts mid-leaf like a Ctrl-C would.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	eng := rcj.NewEngine(rcj.EngineConfig{BufferPages: *bufPages})
	loadIndex := func(path, save string) *rcj.Index {
		return loadOrOpenIndex(eng, path, be, save, *savePack)
	}
	ixP := loadIndex(*pPath, *saveP)
	defer ixP.Close()

	if *dumpPts {
		// Point dumping replaces the join: emit P's points as id,x,y rows in
		// ascending ID order — the canonical input order, so rebuilding an
		// index from the dump reproduces it byte-for-byte.
		pts, err := ixP.Points()
		if err != nil {
			fatalf("read points of %s: %v", *pPath, err)
		}
		sort.Slice(pts, func(i, j int) bool { return pts[i].ID < pts[j].ID })
		entries := make([]rtree.PointEntry, len(pts))
		for i, p := range pts {
			entries[i] = rtree.PointEntry{P: geom.Point{X: p.X, Y: p.Y}, ID: p.ID}
		}
		out := bufio.NewWriter(os.Stdout)
		if err := workload.WritePoints(out, entries); err != nil {
			fatalf("dump points: %v", err)
		}
		if err := out.Flush(); err != nil {
			fatalf("dump points: %v", err)
		}
		fmt.Fprintf(os.Stderr, "rcjjoin: dumped %d points from %s\n", len(entries), *pPath)
		return
	}

	// The join is (ixQ, ixP, qry); -self is P on both sides.
	ixQ := ixP
	if !*self {
		ixQ = loadIndex(*qPath, *saveQ)
		defer ixQ.Close()
	}

	if *shardN > 0 {
		// Shard emission replaces the join: partition the inputs, write the
		// per-shard .rcjx files and the .rcjm manifest, and exit.
		if *shardOut == "" {
			fatalf("-save-shards requires -shards-out manifest.rcjm")
		}
		bound := *shardD
		if bound == 0 {
			bound = *maxDiam
		}
		if bound <= 0 {
			fatalf("-save-shards needs a diameter bound: set -shard-max-diameter (or -max-diameter)")
		}
		pPts, err := ixP.Points()
		if err != nil {
			fatalf("read points of %s: %v", *pPath, err)
		}
		var qPts []rcj.Point
		if !*self {
			if qPts, err = ixQ.Points(); err != nil {
				fatalf("read points of %s: %v", *qPath, err)
			}
		}
		name := strings.TrimSuffix(filepath.Base(*shardOut), shard.Ext)
		m, err := shard.Build(*shardOut, pPts, qPts, shard.BuildConfig{
			Shards: *shardN, MaxDiameter: bound, Name: name, Self: *self, Packed: *savePack,
		})
		if err != nil {
			fatalf("shard build: %v", err)
		}
		populated := 0
		for _, sh := range m.Shards {
			if !sh.Empty() {
				populated++
			}
		}
		fmt.Fprintf(os.Stderr, "rcjjoin: wrote %d shards (%dx%d grid, margin %g) and manifest %s\n",
			populated, m.GridNX, m.GridNY, m.Margin, *shardOut)
		return
	}

	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	cw := csv.NewWriter(out)
	defer cw.Flush()

	var st rcj.Stats
	qry.Stats = &st
	prunedNote := func() string {
		if constrained {
			return fmt.Sprintf(", %d nodes pruned", st.NodesPruned)
		}
		return ""
	}
	if *sorted {
		// Materialize, sort, then write.
		qry.SortByDiameter = true
		pairs, _, err := eng.RunCollect(ctx, ixQ, ixP, qry)
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				fatalf("join timed out after %v", *timeout)
			}
			fatalf("join: %v", err)
		}
		for _, pr := range pairs {
			writePair(cw, pr.P.ID, pr.Q.ID, pr.Center.X, pr.Center.Y, pr.Radius)
		}
		fmt.Fprintf(os.Stderr, "rcjjoin: plan: %s\n", plan)
		fmt.Fprintf(os.Stderr, "rcjjoin: %d pairs (%d candidates verified, %d page faults%s)\n",
			st.Results, st.Candidates, st.PageFaults, prunedNote())
		reportRemote()
		return
	}
	// Streaming mode: rows go out as the join confirms them (a -top-k
	// run emits its ranked pairs together once the traversal finishes).
	results := 0
	for pr, err := range eng.Run(ctx, ixQ, ixP, qry) {
		if err != nil {
			// fatalf exits without running the deferred flushes; push the
			// already-streamed rows out so the file matches the count.
			cw.Flush()
			out.Flush()
			if errors.Is(err, context.Canceled) {
				fatalf("join cancelled after %d pairs", results)
			}
			if errors.Is(err, context.DeadlineExceeded) {
				fatalf("join timed out after %v (%d pairs streamed)", *timeout, results)
			}
			fatalf("join: %v", err)
		}
		writePair(cw, pr.P.ID, pr.Q.ID, pr.Center.X, pr.Center.Y, pr.Radius)
		results++
	}
	fmt.Fprintf(os.Stderr, "rcjjoin: plan: %s\n", plan)
	fmt.Fprintf(os.Stderr, "rcjjoin: %d pairs streamed (%d page faults%s)\n", results, st.PageFaults, prunedNote())
	reportRemote()
}

// remoteIxs collects every index opened during the run so the success paths
// can report remote transfer counters; indexes without an http backend are
// skipped at print time (RemoteStats reports ok=false).
var remoteIxs []*rcj.Index

// reportRemote prints one stderr line per http-backed index summarizing the
// transfer work the join cost — and how much of it was avoided by the
// single-flight dedupe (shared) and adjacent-page coalescing (coalesced).
func reportRemote() {
	for _, ix := range remoteIxs {
		rs, ok := ix.RemoteStats()
		if !ok {
			continue
		}
		fmt.Fprintf(os.Stderr, "rcjjoin: remote: %d fetches, %d KiB, %d shared, %d coalesced, %d retries\n",
			rs.Fetches, rs.BytesFetched/1024, rs.SharedFetches, rs.CoalescedFetches, rs.Retries)
	}
}

// loadOrOpenIndex turns one -p/-q argument into a ready index: an http(s)
// URL opens as a remote index (range requests, per-page checksums, async
// readahead); a saved index file (recognized by its magic) is reopened
// through the chosen backend with no build; anything else is read as a CSV
// pointset and indexed. When save is non-empty the index is persisted there,
// so the next run can pass the saved file instead of the CSV and skip the
// build entirely. savePacked selects the packed (v3, compressed) format for
// that file; saved indexes of either format reopen identically.
func loadOrOpenIndex(eng *rcj.Engine, path string, backend rcj.Backend, save string, savePacked bool) *rcj.Index {
	var ix *rcj.Index
	if rcj.IsIndexURL(path) || rcj.IsIndexFile(path) {
		var err error
		ix, err = eng.OpenIndex(path, rcj.IndexConfig{Backend: backend})
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "rcjjoin: opened index %s (%d points, %s backend)\n", path, ix.Len(), ix.Backend())
		remoteIxs = append(remoteIxs, ix)
	} else {
		f, err := os.Open(path)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		entries, err := workload.ReadPoints(bufio.NewReader(f))
		if err != nil {
			fatalf("%s: %v", path, err)
		}
		pts := make([]rcj.Point, len(entries))
		for i, e := range entries {
			pts[i] = rcj.Point{X: e.P.X, Y: e.P.Y, ID: e.ID}
		}
		ix, err = eng.BuildIndex(pts, rcj.IndexConfig{})
		if err != nil {
			fatalf("index %s: %v", path, err)
		}
	}
	if save != "" {
		saveFn, format := ix.Save, "v2"
		if savePacked {
			saveFn, format = ix.SavePacked, "packed v3"
		}
		if err := saveFn(save); err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "rcjjoin: saved index %s (%d points, %s)\n", save, ix.Len(), format)
	}
	return ix
}

// parseRegion parses a -region flag: four comma-separated floats,
// minX,minY,maxX,maxY.
func parseRegion(s string) *rcj.Rect {
	parts := strings.Split(s, ",")
	if len(parts) != 4 {
		fatalf("-region wants minX,minY,maxX,maxY, got %q", s)
	}
	vals := make([]float64, 4)
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			fatalf("-region: bad number %q", p)
		}
		vals[i] = v
	}
	return &rcj.Rect{MinX: vals[0], MinY: vals[1], MaxX: vals[2], MaxY: vals[3]}
}

func writePair(cw *csv.Writer, pid, qid int64, cx, cy, r float64) {
	rec := []string{
		strconv.FormatInt(pid, 10),
		strconv.FormatInt(qid, 10),
		strconv.FormatFloat(cx, 'f', 6, 64),
		strconv.FormatFloat(cy, 'f', 6, 64),
		strconv.FormatFloat(r, 'f', 6, 64),
	}
	if err := cw.Write(rec); err != nil {
		fatalf("write: %v", err)
	}
}

// profileStops flushes the -cpuprofile/-memprofile outputs; run from the
// deferred success path and from fatalf (os.Exit skips defers, and a
// truncated CPU profile is useless).
var profileStops []func()

func stopProfiles() {
	for _, fn := range profileStops {
		fn()
	}
	profileStops = nil
}

func fatalf(format string, args ...any) {
	stopProfiles()
	fmt.Fprintf(os.Stderr, "rcjjoin: "+format+"\n", args...)
	os.Exit(1)
}

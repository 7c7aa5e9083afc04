package plan

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// optionsGuardAllowed lists the packages that may set core.Options.Algorithm
// directly: core itself, the rcj boundary (where the planner resolves it),
// and the experiment harness, whose whole job is forcing algorithms to
// measure them against each other.
var optionsGuardAllowed = []string{
	"internal/core",
	"internal/exp",
	"rcj",
}

// TestNoDirectAlgorithmConstruction is the vet-level guard on the planner
// boundary: every serving-path caller must route through rcj.Query (whose
// Resolve applies the planner, or pins a forced choice); constructing a
// core.Options literal with an explicit Algorithm anywhere else bypasses
// planning, cache keys, and the equivalence gate. Test files are exempt:
// exercising core.Join directly is what package tests are for.
func TestNoDirectAlgorithmConstruction(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	var violations []string
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		for _, allowed := range optionsGuardAllowed {
			if rel == allowed || strings.HasPrefix(rel, allowed+"/") {
				return nil
			}
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return fmt.Errorf("parse %s: %w", rel, err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			sel, ok := lit.Type.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Options" {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "core" {
				return true
			}
			for _, elt := range lit.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Algorithm" {
					violations = append(violations,
						fmt.Sprintf("%s:%d", rel, fset.Position(kv.Pos()).Line))
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range violations {
		t.Errorf("%s: core.Options{Algorithm: ...} constructed outside the planner boundary — use rcj.Query (Algorithm + ForceAlgorithm) so the plan resolves through Resolve", v)
	}
}

// joinEntryPoints is the whole public surface for running a join: the
// Query family on the engine (streaming, collecting, leaf-batched) and the
// scheduler's admission wrapper — each takes the two indexes, and the same
// index twice is the self-join. The metric is a Query field, not an entry
// point. The RunSelf names are the forwards below.
var joinEntryPoints = map[string][]string{
	"rcj": {
		"Engine.Run", "Engine.RunBatches", "Engine.RunCollect",
		"Engine.RunSelf", "Engine.RunSelfCollect",
	},
	"internal/sched": {"Scheduler.Run", "Scheduler.RunSelf"},
}

// selfForwards are the one-index names the frozen benchmark (perf/) still
// compiles against, each with the two-index method it must forward to in a
// single return statement. They are deprecated, called by nothing else, and
// leave with the next benchmark PR (ROADMAP item 1).
var selfForwards = map[string]string{
	"Engine.RunSelf":        "Run",
	"Engine.RunSelfCollect": "RunCollect",
	"Scheduler.RunSelf":     "Run",
	"Query.Resolve":         "ResolveObserved",
}

// pairResult matches the result types a join hands its pairs back in.
var pairResult = regexp.MustCompile(`^(\[\](rcj\.)?Pair|iter\.Seq2\[(\[\])?(rcj\.)?Pair, error\])$`)

// parseNonTest parses the non-test files of one directory of the module.
func parseNonTest(t *testing.T, dir string) []*ast.File {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), filepath.Join("..", "..", dir),
		func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			files = append(files, f)
		}
	}
	return files
}

// funcName renders a declaration as Recv.Name (or Name).
func funcName(fn *ast.FuncDecl) string {
	if fn.Recv == nil {
		return fn.Name.Name
	}
	return strings.TrimPrefix(types.ExprString(fn.Recv.List[0].Type), "*") + "." + fn.Name.Name
}

// TestJoinEntryPoints is the guard on "one way to run a join": it lists
// every exported function and method of rcj and internal/sched that takes a
// *Index and returns pairs — a slice or an iterator of them — and fails when
// that set is not exactly joinEntryPoints. A new way to run the join has to
// be argued for here, next to the ones it duplicates. It also pins "a join
// is (q, p, Query)": the one-index forwards are one return statement each
// and no code of the module calls them, and no function of the serving path
// takes the join shape as a `self bool` beside the indexes that define it.
func TestJoinEntryPoints(t *testing.T) {
	for dir, want := range joinEntryPoints {
		var got []string
		for _, f := range parseNonTest(t, dir) {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if ok && fn.Name.IsExported() && takesIndex(fn) && returnsPairs(fn) {
					got = append(got, funcName(fn))
				}
			}
		}
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("%s join entry points:\n got  %v\n want %v", dir, got, want)
		}
	}

	forwards := 0
	for _, dir := range []string{"rcj", "internal/sched", "internal/server"} {
		for _, f := range parseNonTest(t, dir) {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				name := funcName(fn)
				target, isForward := selfForwards[name]
				if isForward {
					forwards++
					if !forwardsTo(fn, target) {
						t.Errorf("%s/%s must be the single statement `return x.%s(...)`", dir, name, target)
					}
				}
				for _, p := range fn.Type.Params.List {
					for _, id := range p.Names {
						if id.Name == "self" && types.ExprString(p.Type) == "bool" && name != "Query.Resolve" {
							t.Errorf("%s/%s takes `self bool`: the join shape is q == p", dir, name)
						}
					}
				}
			}
		}
	}
	if forwards != len(selfForwards) {
		t.Errorf("found %d of the %d forwards in selfForwards; drop the entries perf/ no longer needs", forwards, len(selfForwards))
	}

	// No non-test file of the module calls a forward. Without type
	// information a call is recognised by selector name — and, for Resolve,
	// by its three arguments; nothing else in the module shares the names.
	root := filepath.Join("..", "..")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == "testdata" || name == "perf" || name == ".bench_build" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				switch name := sel.Sel.Name; {
				case name == "RunSelf", name == "RunSelfCollect", name == "Resolve" && len(call.Args) == 3:
					t.Errorf("%s calls the deprecated forward %s: pass the two indexes", fset.Position(call.Pos()), name)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// forwardsTo reports whether fn's body is exactly `return <recv>.<target>(...)`.
func forwardsTo(fn *ast.FuncDecl, target string) bool {
	if fn.Body == nil || len(fn.Body.List) != 1 {
		return false
	}
	ret, ok := fn.Body.List[0].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return false
	}
	call, ok := ret.Results[0].(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != target {
		return false
	}
	recv, ok := sel.X.(*ast.Ident)
	return ok && len(fn.Recv.List[0].Names) == 1 && recv.Name == fn.Recv.List[0].Names[0].Name
}

func takesIndex(fn *ast.FuncDecl) bool {
	for _, p := range fn.Type.Params.List {
		if s := types.ExprString(p.Type); s == "*Index" || s == "*rcj.Index" {
			return true
		}
	}
	return false
}

func returnsPairs(fn *ast.FuncDecl) bool {
	if fn.Type.Results == nil {
		return false
	}
	for _, r := range fn.Type.Results.List {
		if pairResult.MatchString(types.ExprString(r.Type)) {
			return true
		}
	}
	return false
}

// Option classes: the reasons a flag or an exported config field may exist.
// What fits none of them is deleted, or becomes a constant.
const (
	// deployment: where and how big — an address, path, name or URL, a
	// capacity, a deadline, a log sink. Differs per installation by nature.
	deployment = "deployment"
	// paper: a parameter of the paper's evaluation — dataset, page size,
	// buffer size, algorithm, an ablation switch of internal/exp.
	paper = "paper"
	// workload: two non-test setters, in the module or perf/, use different
	// values; the entry names both ("file#text the file contains").
	workload = "workload"
	// seam: lets a test (or perf's in-process stack) substitute a fake.
	seam = "seam"
	// query: part of the question asked — join shape, metric, predicates,
	// output order or mode. It changes the answer, so the equivalence gates
	// cover it, not a benchmark row.
	query = "query"
	// measured: not set by anyone — the code measures it; the entry names
	// the measurement site.
	measured = "measured"
	// frozen: one value in every caller, would be a constant, but the frozen
	// benchmark compiles against the name; the entry names the perf/ line,
	// and goes (with the field) once that line does (ROADMAP item 1).
	frozen = "frozen"
)

type option struct {
	class, note string
	setters     []string
}

func opt(class, note string, setters ...string) option { return option{class, note, setters} }

// The setters the batching and backend rows share.
var (
	batchMixes   = []string{"internal/sched/batch.go#8 clients, mixed window/full/max-diameter requests", "internal/sched/batch.go#4 clients, windows only"}
	backendUsers = []string{"perf/embed.go#rcj.IndexConfig{Backend: rcj.BackendMem}", "perf/embed.go#rcj.IndexConfig{Backend: rcj.BackendFile}"}
	packedUsers  = []string{"perf/embed.go#ix.SavePacked(path)", "perf/live.go#ix.Save(f.path)"}
)

// optionLedger classes every flag of the six commands ("cmd -flag") and
// every exported field of the configuration structs ("pkg.Type.Field"). A
// new row has to be argued for here, against the class it claims; the size
// of the table is the configuration surface the tests and the benchmark must
// cover (rcjd 16 flags + 2 repeatable lists, rcjjoin 24, rcjrouter 5 + 1).
var optionLedger = map[string]option{
	"rcjd -addr":                  opt(deployment, "listen address"),
	"rcjd -index":                 opt(deployment, "name=path or URL of a saved index (repeatable)"),
	"rcjd -live-index":            opt(deployment, "name[=base path] of a mutable index (repeatable)"),
	"rcjd -manifest":              opt(deployment, "shard manifest path"),
	"rcjd -shards":                opt(deployment, "names the manifest shards this worker owns"),
	"rcjd -manifest-base":         opt(deployment, "URL or directory the manifest's shard paths resolve against"),
	"rcjd -pprof":                 opt(deployment, "profiling listen address"),
	"rcjd -backend":               opt(workload, "rcj.IndexConfig.Backend", backendUsers...),
	"rcjd -buffer":                opt(paper, "LRU buffer size in pages"),
	"rcjd -max-concurrent":        opt(deployment, "capacity: join slots"),
	"rcjd -max-queue":             opt(deployment, "capacity: admission queue depth"),
	"rcjd -queue-timeout":         opt(deployment, "deadline: wait in the admission queue"),
	"rcjd -join-timeout":          opt(deployment, "deadline: one admitted join"),
	"rcjd -drain-timeout":         opt(deployment, "deadline: in-flight joins at shutdown"),
	"rcjd -result-cache":          opt(deployment, "capacity: memoized result sets (0 = off)"),
	"rcjd -live-compact":          opt(deployment, "capacity: in-memory delta points before a seal"),
	"rcjd -live-keep-generations": opt(deployment, "capacity: sealed generation files kept on disk"),
	"rcjd -batch": opt(workload, "cross-request batching: +55 % ops/s on the mixed 8-client load, "+
		"-6 % on 4 clients of disjoint windows (ROADMAP item 8)", batchMixes...),

	"rcjjoin -p":                  opt(deployment, "path or URL of dataset P"),
	"rcjjoin -q":                  opt(deployment, "path or URL of dataset Q"),
	"rcjjoin -self":               opt(query, "join shape: P with itself"),
	"rcjjoin -metric":             opt(query, "L2 or L1 ring"),
	"rcjjoin -sort":               opt(query, "output order: ascending diameter"),
	"rcjjoin -alg":                opt(paper, "the paper's algorithms (Fig. 13); auto = the planner"),
	"rcjjoin -parallel":           opt(workload, "forced 1 for repeatable counts, 0 = the planner", "perf/inproc.go#qry.Parallelism = 1", "perf/embed.go#qry.Parallelism = parallelism"),
	"rcjjoin -buffer":             opt(paper, "LRU buffer size in pages"),
	"rcjjoin -save-index-p":       opt(deployment, "path to save P's index to"),
	"rcjjoin -save-index-q":       opt(deployment, "path to save Q's index to"),
	"rcjjoin -save-packed":        opt(workload, "format v3 or v2 of the files written", packedUsers...),
	"rcjjoin -backend":            opt(workload, "rcj.IndexConfig.Backend", backendUsers...),
	"rcjjoin -timeout":            opt(deployment, "deadline: the whole run"),
	"rcjjoin -top-k":              opt(query, "predicate"),
	"rcjjoin -max-diameter":       opt(query, "predicate"),
	"rcjjoin -min-distance":       opt(query, "predicate"),
	"rcjjoin -limit":              opt(query, "predicate"),
	"rcjjoin -region":             opt(query, "predicate"),
	"rcjjoin -cpuprofile":         opt(deployment, "path of the CPU profile"),
	"rcjjoin -memprofile":         opt(deployment, "path of the heap profile"),
	"rcjjoin -dump-points":        opt(query, "mode: dump P's points instead of joining"),
	"rcjjoin -save-shards":        opt(deployment, "capacity: shard count of the deployment being built"),
	"rcjjoin -shards-out":         opt(deployment, "manifest path"),
	"rcjjoin -shard-max-diameter": opt(deployment, "the deployment's serving contract: largest ring diameter its shards answer"),

	"rcjrouter -addr":             opt(deployment, "listen address"),
	"rcjrouter -manifest":         opt(deployment, "shard manifest path"),
	"rcjrouter -worker":           opt(deployment, "worker URL and the shards it owns (repeatable)"),
	"rcjrouter -fanout":           opt(deployment, "capacity: concurrent sub-queries per join"),
	"rcjrouter -retries":          opt(deployment, "capacity: failover attempts, bounded by the replicas a shard has"),
	"rcjrouter -subquery-timeout": opt(deployment, "deadline: one sub-query attempt"),

	"datagen -kind":     opt(paper, "dataset family of the evaluation"),
	"datagen -n":        opt(paper, "data size"),
	"datagen -seed":     opt(paper, "dataset seed"),
	"datagen -clusters": opt(paper, "Gaussian dataset: cluster count"),
	"datagen -sigma":    opt(paper, "Gaussian dataset: cluster spread"),

	"rcjbench -exp":      opt(paper, "which table or figure"),
	"rcjbench -scale":    opt(paper, "data size relative to the paper's"),
	"rcjbench -buffer":   opt(paper, "buffer size as a fraction of the trees"),
	"rcjbench -pagesize": opt(paper, "page size"),

	"rcjviz -p":    opt(deployment, "path of dataset P"),
	"rcjviz -q":    opt(deployment, "path of dataset Q"),
	"rcjviz -self": opt(query, "join shape: P with itself"),
	"rcjviz -demo": opt(query, "mode: the built-in scene instead of files"),
	"rcjviz -size": opt(deployment, "output image side in pixels"),

	"rcj.EngineConfig.PageSize":    opt(paper, "page size"),
	"rcj.EngineConfig.BufferPages": opt(paper, "LRU buffer size"),
	"rcj.EngineConfig.BufferShards": opt(workload, "1 = exact global LRU so embed_cold's fault counts repeat; 0 = a shard per CPU under concurrent serving",
		"perf/embed.go#BufferShards: 1", "perf/inproc.go#rcj.EngineConfig{BufferPages: 4096}"),
	"rcj.IndexConfig.PageSize":    opt(paper, "page size"),
	"rcj.IndexConfig.BufferPages": opt(paper, "LRU buffer size of an engine-less index"),
	"rcj.IndexConfig.Backend":     opt(workload, "embed_warm serves from memory, embed_cold from the file", backendUsers...),
	"rcj.MutableConfig.Index": opt(workload, "the sealed base's IndexConfig (its fields are rows of their own)",
		"internal/server/live.go#rcjIndexConfig(s.backend)", "perf/live_layers.go#rcj.MutableConfig{CompactEvery: -1}"),
	"rcj.MutableConfig.CompactEvery":    opt(deployment, "capacity: in-memory delta points before a seal"),
	"rcj.MutableConfig.KeepGenerations": opt(deployment, "capacity: sealed generation files kept on disk"),
	"rcj.MutableConfig.OnCompactError":  opt(deployment, "log sink for background compaction failures"),

	"sched.Config.MaxConcurrent":    opt(deployment, "capacity: join slots"),
	"sched.Config.MaxQueue":         opt(deployment, "capacity: admission queue depth"),
	"sched.Config.QueueTimeout":     opt(deployment, "deadline: wait in the admission queue"),
	"sched.Config.JoinTimeout":      opt(deployment, "deadline: one admitted join"),
	"sched.Config.Batch":            opt(workload, "sched.BatchConfig (its fields are rows of their own)", batchMixes...),
	"sched.BatchConfig.Enabled":     opt(workload, "rcjd -batch", batchMixes...),
	"sched.BatchConfig.MaxRequests": opt(frozen, "16 everywhere", "perf/inproc.go#MaxRequests: sched.DefaultBatchMaxRequests"),

	"server.Config.Backend":            opt(workload, "rcj.IndexConfig.Backend", backendUsers...),
	"server.Config.ResultCacheEntries": opt(deployment, "capacity: memoized result sets (0 = off)"),
	"server.Config.ResultCachePairs":   opt(frozen, "4096 everywhere", "perf/inproc.go#ResultCachePairs: server.DefaultResultCachePairs"),

	"server.DaemonConfig.Addr":                opt(deployment, "listen address"),
	"server.DaemonConfig.Indexes":             opt(deployment, "names and paths of saved indexes"),
	"server.DaemonConfig.LiveIndexes":         opt(deployment, "names and base paths of mutable indexes"),
	"server.DaemonConfig.LiveCompactEvery":    opt(deployment, "capacity: in-memory delta points before a seal"),
	"server.DaemonConfig.LiveKeepGenerations": opt(deployment, "capacity: sealed generation files kept on disk"),
	"server.DaemonConfig.Manifest":            opt(deployment, "shard manifest path"),
	"server.DaemonConfig.ManifestShards":      opt(deployment, "names the manifest shards this worker owns"),
	"server.DaemonConfig.ManifestBase":        opt(deployment, "URL or directory the manifest's shard paths resolve against"),
	"server.DaemonConfig.Backend":             opt(workload, "rcj.IndexConfig.Backend", backendUsers...),
	"server.DaemonConfig.BufferPages":         opt(paper, "LRU buffer size"),
	"server.DaemonConfig.PprofAddr":           opt(deployment, "profiling listen address"),
	"server.DaemonConfig.Sched":               opt(deployment, "admission bounds: sched.Config (its fields are rows of their own)"),
	"server.DaemonConfig.ResultCacheEntries":  opt(deployment, "capacity: memoized result sets (0 = off)"),
	"server.DaemonConfig.DrainTimeout":        opt(deployment, "deadline: in-flight joins at shutdown"),
	"server.DaemonConfig.Logf":                opt(deployment, "log sink"),

	"router.Config.Manifest":   opt(deployment, "the sharded dataset"),
	"router.Config.Workers":    opt(deployment, "worker URLs and the shards each owns"),
	"router.Config.Fanout":     opt(deployment, "capacity: concurrent sub-queries per join"),
	"router.Config.Retries":    opt(deployment, "capacity: failover attempts, bounded by the replicas a shard has"),
	"router.Config.SubTimeout": opt(deployment, "deadline: one sub-query attempt"),
	"router.Config.Client":     opt(seam, "tests gate and break worker requests; perf's in-process stack traces them"),
	"router.Config.Logf":       opt(deployment, "log sink"),

	"shard.BuildConfig.Shards":      opt(deployment, "capacity: shard count of the deployment being built"),
	"shard.BuildConfig.MaxDiameter": opt(deployment, "the deployment's serving contract: largest ring diameter its shards answer"),
	"shard.BuildConfig.Name":        opt(deployment, "manifest name"),
	"shard.BuildConfig.Self":        opt(query, "join shape: one dataset served for self-joins"),
	"shard.BuildConfig.Packed":      opt(workload, "format v3 or v2 of the files written", packedUsers...),

	"live.Config.PageSize":       opt(paper, "page size"),
	"live.Config.CompactEvery":   opt(deployment, "capacity: in-memory delta points before a seal"),
	"live.Config.Seal":           opt(seam, "rcj binds its index builder; live's tests seal without it"),
	"live.Config.OnCompactError": opt(deployment, "log sink for background compaction failures"),

	"rtree.Config.PageSize":    opt(paper, "page size"),
	"rtree.Config.SplitPolicy": opt(paper, "split-policy ablation of internal/exp (R* vs linear)"),
	"rtree.Config.Owner":       opt(deployment, "name: the tree's page namespace in a shared pool"),

	"storage.HTTPPagerConfig.Client":       opt(seam, "tests script origin faults through it"),
	"storage.HTTPPagerConfig.MaxRetries":   opt(seam, "tests bound the retry budget"),
	"storage.HTTPPagerConfig.RetryBackoff": opt(seam, "tests shrink the backoff"),
	"storage.HTTPPagerConfig.MaxBackoff":   opt(seam, "tests shrink the backoff"),

	"plan.Observed.FreeSlots": opt(measured, "the scheduler's idle slots", "internal/sched/sched.go#obs.FreeSlots = s.cfg.MaxConcurrent - s.running"),
	"plan.Observed.MaxProcs":  opt(seam, "planner tests pin the CPU count"),
}

// ledgerRows is the size ROADMAP's table tracks.
const ledgerRows = 122

// ledgerStructs lists the configuration structs whose exported fields the
// ledger classes, by directory.
var ledgerStructs = map[string][]string{
	"rcj":              {"EngineConfig", "IndexConfig", "MutableConfig"},
	"internal/sched":   {"Config", "BatchConfig"},
	"internal/server":  {"Config", "DaemonConfig"},
	"internal/router":  {"Config"},
	"internal/shard":   {"BuildConfig"},
	"internal/live":    {"Config"},
	"internal/rtree":   {"Config"},
	"internal/storage": {"HTTPPagerConfig"},
	"internal/plan":    {"Observed"},
}

// TestOptionLedger is the guard on "every option earns its keep": it lists
// every flag the six commands define and every exported field of the
// configuration structs, and fails on one without a ledger entry, on an
// entry for something that no longer exists, and on an entry whose class
// needs setters (workload: two different ones; measured, frozen: one) that
// are not where it says.
func TestOptionLedger(t *testing.T) {
	root := filepath.Join("..", "..")
	found := map[string]bool{}
	for _, cmd := range []string{"datagen", "rcjbench", "rcjd", "rcjjoin", "rcjrouter", "rcjviz"} {
		f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(root, "cmd", cmd, "main.go"), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) < 2 {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); !ok || types.ExprString(sel.X) != "flag" {
				return true
			}
			if name, ok := call.Args[0].(*ast.BasicLit); ok && name.Kind == token.STRING {
				found[cmd+" -"+strings.Trim(name.Value, `"`)] = true
			}
			return true
		})
	}
	for dir, names := range ledgerStructs {
		files := sourceFiles(t, dir)
		for _, name := range names {
			st, ok := typeSpec(files, name).(*ast.StructType)
			if !ok {
				t.Fatalf("%s.%s is not a struct", dir, name)
			}
			for _, f := range st.Fields.List {
				for _, id := range f.Names {
					if id.IsExported() {
						found[filepath.Base(dir)+"."+name+"."+id.Name] = true
					}
				}
			}
		}
	}

	for key := range found {
		if _, ok := optionLedger[key]; !ok {
			t.Errorf("%s has no ledger entry: class it in optionLedger, or delete it", key)
		}
	}
	for key, o := range optionLedger {
		if !found[key] {
			t.Errorf("ledger entry %s names no flag or field: drop it", key)
		}
		want := map[string]int{workload: 2, measured: 1, frozen: 1}[o.class]
		if len(o.setters) != want || (want == 2 && o.setters[0] == o.setters[1]) {
			t.Errorf("%s: class %s wants %d distinct setters, the entry names %v", key, o.class, want, o.setters)
		}
		for _, setter := range o.setters {
			file, text, _ := strings.Cut(setter, "#")
			src, err := os.ReadFile(filepath.Join(root, file))
			if err != nil || text == "" || !strings.Contains(string(src), text) {
				t.Errorf("%s: setter %q is gone (%v): find the value's users again, or delete the option", key, setter, err)
			}
			if o.class == frozen && !strings.HasPrefix(file, "perf/") {
				t.Errorf("%s: a frozen option is one perf/ names, not %s", key, file)
			}
		}
	}
	if len(optionLedger) != ledgerRows {
		t.Errorf("the ledger has %d rows, ROADMAP's size table says %d: update both together", len(optionLedger), ledgerRows)
	}
}

// sourceFiles parses every non-test Go file under dir (relative to the
// module root), recursively, skipping the benchmark's own module.
func sourceFiles(t *testing.T, dir string) map[string]*ast.File {
	t.Helper()
	root := filepath.Join("..", "..")
	files := map[string]*ast.File{}
	err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == "testdata" || name == "perf" || name == ".bench_build" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		files[filepath.ToSlash(rel)] = f
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// typeSpec finds the declaration of a named type among files.
func typeSpec(files map[string]*ast.File, name string) ast.Expr {
	for _, f := range files {
		for _, decl := range f.Decls {
			gen, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gen.Specs {
				if ts, ok := spec.(*ast.TypeSpec); ok && ts.Name.Name == name {
					return ts.Type
				}
			}
		}
	}
	return nil
}

// TestOneFilterTraversal is the guard on "one filter traversal, one way out
// of the executor": in internal/core exactly two functions drive the filter
// heap — bulkFilter (Algorithm 7, and on a one-point batch Algorithm 2: INJ,
// BIJ and OBJ are batch granularity and Lemma-5 seeding on it) and filterL1
// (the Manhattan pruner kernel) — and the three result sinks of core.Options
// are each read in exactly one function, deliver. A second traversal or a
// second place that hands pairs to a caller has to be argued for here.
func TestOneFilterTraversal(t *testing.T) {
	users := map[string][]string{} // selector name -> functions mentioning it
	for _, f := range parseNonTest(t, "internal/core") {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			seen := map[string]bool{}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "pop" {
						seen["pop"] = true
					}
				case *ast.SelectorExpr:
					if name := n.Sel.Name; name == "Collect" || name == "OnPair" || name == "OnBatch" {
						seen[name] = true
					}
				}
				return true
			})
			for name := range seen {
				users[name] = append(users[name], funcName(fn))
			}
		}
	}
	for name, want := range map[string][]string{
		"pop":     {"joiner.bulkFilter", "joiner.filterL1"},
		"Collect": {"joiner.deliver"},
		"OnPair":  {"joiner.deliver"},
		"OnBatch": {"joiner.deliver"},
	} {
		got := users[name]
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("functions of internal/core using .%s: %v, want exactly %v", name, got, want)
		}
	}
}

// leafWalkName matches the names the leaf walk used to be copied under.
var leafWalkName = regexp.MustCompile(`(?i)^(visitleaves|leafpages)|leavespruned`)

// TestOneReadPath is the guard on "one read path from index bytes to leaf
// nodes": an index is two methods; three substrates (memory, local file,
// HTTP ranges) serve pages and every format version reads through all of
// them; the depth-first leaf walk exists once; and building an index takes
// no more knobs than it did. A fourth pager, a second walker, a wider index
// contract or a new IndexConfig field has to be argued for here.
func TestOneReadPath(t *testing.T) {
	index, ok := typeSpec(sourceFiles(t, "internal/core"), "SpatialIndex").(*ast.InterfaceType)
	if !ok {
		t.Fatal("core.SpatialIndex is not an interface")
	}
	var methods []string
	for _, m := range index.Methods.List {
		if len(m.Names) == 0 {
			methods = append(methods, "embedded "+types.ExprString(m.Type))
		}
		for _, name := range m.Names {
			methods = append(methods, name.Name)
		}
	}
	slices.Sort(methods)
	if want := []string{"ReadNode", "Root"}; !slices.Equal(methods, want) {
		t.Errorf("core.SpatialIndex declares %v, want exactly %v", methods, want)
	}

	var pagers []string
	for _, f := range sourceFiles(t, "internal/storage") {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv != nil && fn.Name.Name == "ReadPage" {
				pagers = append(pagers, strings.TrimPrefix(types.ExprString(fn.Recv.List[0].Type), "*"))
			}
		}
	}
	slices.Sort(pagers)
	if want := []string{"HTTPPager", "MemPager", "preadPager"}; !slices.Equal(pagers, want) {
		t.Errorf("types with a ReadPage method in internal/storage: %v, want exactly %v", pagers, want)
	}

	var walkers []string
	for rel, f := range sourceFiles(t, ".") {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && leafWalkName.MatchString(fn.Name.Name) {
				name := fn.Name.Name
				if fn.Recv != nil {
					name = strings.TrimPrefix(types.ExprString(fn.Recv.List[0].Type), "*") + "." + name
				}
				walkers = append(walkers, filepath.ToSlash(filepath.Dir(rel))+"."+name)
			}
		}
	}
	slices.Sort(walkers)
	if want := []string{"internal/rtree.VisitLeaves"}; !slices.Equal(walkers, want) {
		t.Errorf("leaf walkers: %v, want exactly %v", walkers, want)
	}

	cfg, ok := typeSpec(sourceFiles(t, "rcj"), "IndexConfig").(*ast.StructType)
	if !ok {
		t.Fatal("rcj.IndexConfig is not a struct")
	}
	fields := 0
	for _, f := range cfg.Fields.List {
		fields += max(len(f.Names), 1)
	}
	if fields != 3 {
		t.Errorf("rcj.IndexConfig has %d fields, want 3", fields)
	}
}

package plan

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
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

// commandFlags pins how many flags each serving command defines
// (flag.String/Int/Bool/Duration/Float64 calls; the repeatable flag.Func
// ones are deployment lists, not knobs). Every flag is a configuration the
// tests and the benchmark must cover: a new one has to be argued for here,
// against the workload that needs it.
var commandFlags = map[string]int{"rcjd": 19, "rcjjoin": 24, "rcjrouter": 5}

func TestCommandFlagCounts(t *testing.T) {
	for cmd, want := range commandFlags {
		f, err := parser.ParseFile(token.NewFileSet(), filepath.Join("..", "..", "cmd", cmd, "main.go"), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		got := 0
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				switch types.ExprString(call.Fun) {
				case "flag.String", "flag.Int", "flag.Bool", "flag.Duration", "flag.Float64":
					got++
				}
			}
			return true
		})
		if got != want {
			t.Errorf("cmd/%s defines %d flags, want %d", cmd, got, want)
		}
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
	if fields != 6 {
		t.Errorf("rcj.IndexConfig has %d fields, want 6", fields)
	}
}

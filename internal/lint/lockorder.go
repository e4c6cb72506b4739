package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// lockorder builds a global mutex-acquisition graph: which lock classes
// are acquired while which others are held, across every function of the
// configured packages and, interprocedurally, everything they call inside
// the module. A lock class is a struct field or package-level variable of
// type sync.Mutex/sync.RWMutex, named like "reldb.DB.mu" or
// "godbc.driversMu"; local mutex variables are out of scope (they cannot
// participate in cross-function deadlocks).
//
// Three rules:
//
//  1. Every lock class discovered in the scoped packages must appear in
//     the declared ordering table (LockOrder) — adding a mutex to reldb,
//     godbc, obs or sqlexec forces the author to place it in the global
//     order.
//  2. An edge held→acquired must go outward→inward in the declared order:
//     acquiring a lock that is declared *outer* (or the same lock again)
//     while holding an inner one is reported.
//  3. Any cycle in the acquisition graph is reported, whether or not the
//     classes involved are ranked.
//
// Locks that escape their acquiring function by contract (reldb's
// Begin/Commit protocol) are invisible to the per-function walk; the
// HeldOnEntry table declares them instead: every method of the named
// receiver type is analyzed as if the listed locks were already held.

// LockorderConfig scopes the analyzer and declares the global order.
type LockorderConfig struct {
	// Packages whose function bodies seed the walk ("pkg" import paths).
	// The call graph still crosses into any module package.
	Packages []string
	// Order lists every known lock class, outermost (acquired first)
	// to innermost (acquired last, leaf locks).
	Order []string
	// HeldOnEntry maps a receiver type class (e.g. "reldb.Tx") to the
	// lock classes its methods hold by contract on entry.
	HeldOnEntry map[string][]string
}

// LockOrder is the declared production ordering, outermost first. It is
// what `perfdmf-vet -fix-hints` prints and docs/STATIC_ANALYSIS.md
// documents; extend it when adding a mutex to a scoped package.
var LockOrder = []string{
	"godbc.driversMu",         // driver registration table
	"godbc.memDriver.mu",      // per-driver open serialization
	"godbc.fileDriver.mu",     // per-driver open serialization
	"godbc.connRegMu",         // live-connection registry
	"godbc.stmtCache.mu",      // per-connection statement cache
	"sqlexec.StmtRegistry.mu", // live-statement registry
	"reldb.DB.mu",             // database reader/writer lock
	"reldb.Table.segMu",       // columnar segment build serialization
	"httpserve.Collector.mu",  // metrics collector state
	"obs.TelemetrySink.mu",    // telemetry buffer
	"obs.Governor.mu",         // overhead governor window
	"obs.Tracer.mu",           // span ring: the trace ring and the slow-query log
	"obs.AlertSet.mu",         // alert rule/state table (Eval reads the history under it)
	"obs.History.mu",          // metric-history ring
	"obs.Registry.mu",         // metric registration (leaf: metric resolution can happen anywhere)
}

// LockOrderHeldOnEntry declares the Begin/Commit contract: every reldb.Tx
// method runs holding the database lock (DB.Begin returns holding it,
// Commit/Rollback release it).
var LockOrderHeldOnEntry = map[string][]string{
	"reldb.Tx": {"reldb.DB.mu"},
}

// Lockorder returns the analyzer with the production configuration.
func Lockorder() *Analyzer {
	return LockorderFor(LockorderConfig{
		Packages: []string{
			"perfdmf/internal/reldb",
			"perfdmf/internal/godbc",
			"perfdmf/internal/obs",
			"perfdmf/internal/obs/httpserve",
			"perfdmf/internal/sqlexec",
		},
		Order:       LockOrder,
		HeldOnEntry: LockOrderHeldOnEntry,
	})
}

// LockorderFor returns the analyzer for an explicit configuration (golden
// tests use a testdata-scoped one).
func LockorderFor(cfg LockorderConfig) *Analyzer {
	return &Analyzer{
		Name: "lockorder",
		Doc:  "mutex acquisition must follow the declared global lock order, acyclically",
		Run: func(prog *Program) []Diagnostic {
			lo := newLockorderWalk(prog, cfg)
			return lo.run()
		},
	}
}

// lockEdge is one held→acquired observation.
type lockEdge struct {
	from, to string
	pos      token.Pos
	via      string // call chain hint for the message ("" for direct)
}

type lockorderWalk struct {
	prog *Program
	cfg  LockorderConfig
	rank map[string]int

	funcs   map[*types.Func]*lockFunc // module function index
	acqMemo map[*types.Func]map[string]token.Pos

	edges     []lockEdge
	firstSeen map[string]token.Pos // class → first acquisition position
}

type lockFunc struct {
	decl *ast.FuncDecl
	pkg  *Package
}

func newLockorderWalk(prog *Program, cfg LockorderConfig) *lockorderWalk {
	lo := &lockorderWalk{
		prog:      prog,
		cfg:       cfg,
		rank:      make(map[string]int, len(cfg.Order)),
		funcs:     make(map[*types.Func]*lockFunc),
		acqMemo:   make(map[*types.Func]map[string]token.Pos),
		firstSeen: make(map[string]token.Pos),
	}
	for i, c := range cfg.Order {
		lo.rank[c] = i
	}
	for _, pkg := range prog.Packages {
		if pkg.Info == nil {
			continue
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					lo.funcs[obj] = &lockFunc{decl: fd, pkg: pkg}
				}
			}
		}
	}
	return lo
}

func (lo *lockorderWalk) run() []Diagnostic {
	for _, pkg := range lo.prog.Packages {
		if pkg.Info == nil || !pathInScope(pkg.PkgPath, lo.cfg.Packages) {
			continue
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				lo.walkFunc(pkg, fd)
			}
		}
	}
	return lo.report()
}

// heldOnEntry resolves the contract-held locks for a method's receiver.
func (lo *lockorderWalk) heldOnEntry(pkg *Package, fd *ast.FuncDecl) []string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return nil
	}
	ts := typeString(pkg.Info, fd.Recv.List[0].Type)
	return lo.cfg.HeldOnEntry[shortClass(ts)]
}

// walkFunc runs the held-set walk over one function body (and, with fresh
// empty held sets, over every function literal inside it).
func (lo *lockorderWalk) walkFunc(pkg *Package, fd *ast.FuncDecl) {
	held := append([]string(nil), lo.heldOnEntry(pkg, fd)...)
	lo.walkStmts(pkg, fd.Body.List, &held)
}

// walkStmts is a source-order walk of a statement list, maintaining the
// held set. It is deliberately linear — Lock/Unlock pairs in this repo
// are textually scoped — which errs toward under-reporting on exotic
// branch structure, never toward false positives.
func (lo *lockorderWalk) walkStmts(pkg *Package, stmts []ast.Stmt, held *[]string) {
	for _, s := range stmts {
		lo.walkStmt(pkg, s, held)
	}
}

func (lo *lockorderWalk) walkStmt(pkg *Package, s ast.Stmt, held *[]string) {
	switch s := s.(type) {
	case *ast.DeferStmt:
		// A deferred Unlock keeps the lock held to function end: leave
		// the held set alone. Other deferred calls run at an unknowable
		// point; skip them (under-report).
		return
	case *ast.GoStmt:
		// The spawned goroutine does not inherit the spawner's held set.
		if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
			fresh := []string{}
			lo.walkStmts(pkg, fl.Body.List, &fresh)
		}
		return
	case *ast.BlockStmt:
		lo.walkStmts(pkg, s.List, held)
		return
	case *ast.LabeledStmt:
		lo.walkStmt(pkg, s.Stmt, held)
		return
	case *ast.IfStmt:
		if s.Init != nil {
			lo.walkStmt(pkg, s.Init, held)
		}
		lo.walkExpr(pkg, s.Cond, held)
		lo.walkStmts(pkg, s.Body.List, held)
		if s.Else != nil {
			lo.walkStmt(pkg, s.Else, held)
		}
		return
	case *ast.ForStmt:
		if s.Init != nil {
			lo.walkStmt(pkg, s.Init, held)
		}
		lo.walkExpr(pkg, s.Cond, held)
		lo.walkStmts(pkg, s.Body.List, held)
		if s.Post != nil {
			lo.walkStmt(pkg, s.Post, held)
		}
		return
	case *ast.RangeStmt:
		lo.walkExpr(pkg, s.X, held)
		lo.walkStmts(pkg, s.Body.List, held)
		return
	case *ast.SwitchStmt:
		if s.Init != nil {
			lo.walkStmt(pkg, s.Init, held)
		}
		lo.walkExpr(pkg, s.Tag, held)
		lo.walkClauses(pkg, s.Body, held)
		return
	case *ast.TypeSwitchStmt:
		lo.walkClauses(pkg, s.Body, held)
		return
	case *ast.SelectStmt:
		lo.walkClauses(pkg, s.Body, held)
		return
	}
	// Leaf statements: scan expressions for lock operations and calls.
	ast.Inspect(s, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			fresh := []string{}
			lo.walkStmts(pkg, n.Body.List, &fresh)
			return false
		case *ast.CallExpr:
			lo.handleCall(pkg, n, held)
			// Arguments may contain nested calls; keep descending, but
			// handleCall has already processed this node's own shape.
			return true
		}
		return true
	})
}

func (lo *lockorderWalk) walkClauses(pkg *Package, body *ast.BlockStmt, held *[]string) {
	for _, cl := range body.List {
		switch cl := cl.(type) {
		case *ast.CaseClause:
			lo.walkStmts(pkg, cl.Body, held)
		case *ast.CommClause:
			lo.walkStmts(pkg, cl.Body, held)
		}
	}
}

func (lo *lockorderWalk) walkExpr(pkg *Package, e ast.Expr, held *[]string) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			fresh := []string{}
			lo.walkStmts(pkg, n.Body.List, &fresh)
			return false
		case *ast.CallExpr:
			lo.handleCall(pkg, n, held)
			return true
		}
		return true
	})
}

// handleCall classifies one call: a lock acquisition, a lock release, or
// an ordinary call whose transitive acquisitions become edges when locks
// are held here.
func (lo *lockorderWalk) handleCall(pkg *Package, call *ast.CallExpr, held *[]string) {
	if recv, m, ok := methodCall(call); ok && isMutexOp(m) && isMutexType(typeString(pkg.Info, recv)) {
		class := lo.lockClass(pkg, recv)
		if class == "" {
			return // local mutex variable: out of scope
		}
		switch m {
		case "Lock", "RLock", "TryLock", "TryRLock":
			if _, seen := lo.firstSeen[class]; !seen {
				lo.firstSeen[class] = call.Pos()
			}
			for _, h := range *held {
				lo.edges = append(lo.edges, lockEdge{from: h, to: class, pos: call.Pos()})
			}
			*held = append(*held, class)
		case "Unlock", "RUnlock":
			lo.release(held, class)
		}
		return
	}
	// Ordinary call: edges to everything the callee transitively acquires.
	if len(*held) == 0 {
		return
	}
	callee := lo.resolveCallee(pkg, call)
	if callee == nil {
		return
	}
	acq := lo.acquires(callee)
	if len(acq) == 0 {
		return
	}
	classes := make([]string, 0, len(acq))
	for c := range acq {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, h := range *held {
		for _, c := range classes {
			lo.edges = append(lo.edges, lockEdge{from: h, to: c, pos: call.Pos(), via: callee.Name()})
		}
	}
}

func (lo *lockorderWalk) release(held *[]string, class string) {
	for i := len(*held) - 1; i >= 0; i-- {
		if (*held)[i] == class {
			*held = append((*held)[:i], (*held)[i+1:]...)
			return
		}
	}
}

// resolveCallee maps a call to the module function it invokes, or nil for
// stdlib calls, function values, interface methods and conversions.
func (lo *lockorderWalk) resolveCallee(pkg *Package, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	if fn, ok := pkg.Info.Uses[id].(*types.Func); ok {
		if _, inModule := lo.funcs[fn]; inModule {
			return fn
		}
	}
	return nil
}

// acquires computes, with memoization over the module call graph, the set
// of lock classes a function acquires directly or through its callees.
// Cycles in the call graph resolve to the fixed point reached so far.
func (lo *lockorderWalk) acquires(fn *types.Func) map[string]token.Pos {
	if memo, ok := lo.acqMemo[fn]; ok {
		return memo
	}
	out := make(map[string]token.Pos)
	lo.acqMemo[fn] = out // pre-publish: call-graph cycle guard
	lf := lo.funcs[fn]
	if lf == nil {
		return out
	}
	ast.Inspect(lf.decl.Body, func(n ast.Node) bool {
		if _, isGo := n.(*ast.GoStmt); isGo {
			return false // goroutine acquisitions are not the caller's
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if recv, m, okM := methodCall(call); okM && isMutexOp(m) && isMutexType(typeString(lf.pkg.Info, recv)) {
			if m == "Lock" || m == "RLock" || m == "TryLock" || m == "TryRLock" {
				if class := lo.lockClass(lf.pkg, recv); class != "" {
					if _, seen := out[class]; !seen {
						out[class] = call.Pos()
					}
				}
			}
			return true
		}
		if callee := lo.resolveCallee(lf.pkg, call); callee != nil && callee != fn {
			for c, p := range lo.acquires(callee) {
				if _, seen := out[c]; !seen {
					out[c] = p
				}
			}
		}
		return true
	})
	return out
}

// lockClass names the lock a receiver expression denotes: a struct field
// ("pkg.Type.field") or a package-level variable ("pkg.var"). Local
// variables return "".
func (lo *lockorderWalk) lockClass(pkg *Package, recv ast.Expr) string {
	switch recv := recv.(type) {
	case *ast.SelectorExpr:
		// x.mu — field of x's type.
		ts := typeString(pkg.Info, recv.X)
		if ts == "" {
			return ""
		}
		return shortClass(ts) + "." + recv.Sel.Name
	case *ast.Ident:
		obj, ok := pkg.Info.Uses[recv].(*types.Var)
		if !ok || obj.Parent() == nil {
			return ""
		}
		// Package-level variable: its parent scope is the package scope.
		if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			return obj.Pkg().Name() + "." + obj.Name()
		}
		return ""
	}
	return ""
}

// shortClass shortens "*perfdmf/internal/reldb.DB" to "reldb.DB".
func shortClass(ts string) string {
	ts = strings.TrimPrefix(ts, "*")
	if i := strings.LastIndex(ts, "/"); i >= 0 {
		ts = ts[i+1:]
	}
	return ts
}

func isMutexOp(m string) bool {
	switch m {
	case "Lock", "RLock", "TryLock", "TryRLock", "Unlock", "RUnlock":
		return true
	}
	return false
}

// report turns the collected graph into diagnostics: undeclared classes,
// order violations, and cycles.
func (lo *lockorderWalk) report() []Diagnostic {
	var out []Diagnostic

	// Rule 1: every discovered class must be in the declared table.
	classes := make([]string, 0, len(lo.firstSeen))
	for c := range lo.firstSeen {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		if _, ok := lo.rank[c]; !ok {
			out = append(out, diag(lo.prog, "lockorder", lo.firstSeen[c],
				"lock class %s is not in the declared lock order table (see lint.LockOrder)", c))
		}
	}

	// Rule 2: edges must go outer→inner in the declared order.
	reported := make(map[string]bool)
	for _, e := range lo.edges {
		ri, iOK := lo.rank[e.from]
		rj, jOK := lo.rank[e.to]
		if !iOK || !jOK {
			continue // rule 1 already covers undeclared classes
		}
		if rj > ri {
			continue
		}
		key := fmt.Sprintf("%s→%s@%d", e.from, e.to, e.pos)
		if reported[key] {
			continue
		}
		reported[key] = true
		via := ""
		if e.via != "" {
			via = " (via " + e.via + ")"
		}
		if e.from == e.to {
			out = append(out, diag(lo.prog, "lockorder", e.pos,
				"lock %s acquired while already held%s: self-deadlock", e.from, via))
		} else {
			out = append(out, diag(lo.prog, "lockorder", e.pos,
				"acquires %s while holding %s%s: violates the declared lock order (outer→inner)", e.to, e.from, via))
		}
	}

	// Rule 3: cycles, including through unranked classes.
	out = append(out, lo.cycles()...)
	return out
}

// cycles finds one representative diagnostic per acquisition-graph cycle.
func (lo *lockorderWalk) cycles() []Diagnostic {
	adj := make(map[string]map[string]token.Pos)
	for _, e := range lo.edges {
		if e.from == e.to {
			continue // self-edges are reported by rule 2
		}
		if adj[e.from] == nil {
			adj[e.from] = make(map[string]token.Pos)
		}
		if _, ok := adj[e.from][e.to]; !ok {
			adj[e.from][e.to] = e.pos
		}
	}
	nodes := make([]string, 0, len(adj))
	for n := range adj {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)

	var out []Diagnostic
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[string]int)
	var stack []string
	var visit func(n string)
	visit = func(n string) {
		color[n] = gray
		stack = append(stack, n)
		succs := make([]string, 0, len(adj[n]))
		for s := range adj[n] {
			succs = append(succs, s)
		}
		sort.Strings(succs)
		for _, s := range succs {
			switch color[s] {
			case white:
				visit(s)
			case gray:
				// Back edge: the cycle is stack[idx(s):] + s.
				i := len(stack) - 1
				for i >= 0 && stack[i] != s {
					i--
				}
				cyc := append(append([]string{}, stack[i:]...), s)
				out = append(out, diag(lo.prog, "lockorder", adj[n][s],
					"lock-order cycle: %s", strings.Join(cyc, " → ")))
			}
		}
		stack = stack[:len(stack)-1]
		color[n] = black
	}
	for _, n := range nodes {
		if color[n] == white {
			visit(n)
		}
	}
	return out
}

package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Cyclelint guards the cycle-counter discipline: the simulator's `now`
// flows as an int64 from GPU.Step into every component, and only the tick
// entry points advance stored cycle state. It reports:
//
//   - narrowing integer conversions of int64 cycle values (int(now),
//     int32(x.IssueCycle), ...), which silently wrap on long runs;
//   - reassignment of a `now` variable after its definition — components
//     must derive new values, not shift the shared timebase;
//   - writes to cycle-holding fields (cycle, nowCache, Cycles) outside a
//     function named Tick or Step.
var Cyclelint = &Analyzer{
	Name:  "cyclelint",
	Doc:   "reports narrowing of int64 cycle values, reassignment of now, and cycle-state writes outside Tick/Step",
	Scope: scopeOf("sim", "mem", "sched", "core", "prefetch", "obs", "profile", "hostprof", "memlens", "schedlens", "lens", "lenses", "flight", "experiments", "cmd"),
	Run:   runCyclelint,
}

// cycleFields are the struct fields that hold authoritative cycle state;
// only Tick/Step may advance them. Timestamp fields (IssueCycle, GenCycle)
// are deliberately absent: they record a cycle, they do not define one.
var cycleFields = map[string]bool{
	"cycle":    true,
	"nowCache": true,
	"Cycles":   true,
}

func runCyclelint(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			inTick := fd.Name.Name == "Tick" || fd.Name.Name == "Step"
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					checkNarrowing(pass, n)
				case *ast.AssignStmt:
					checkCycleAssign(pass, n, inTick)
				case *ast.IncDecStmt:
					checkCycleIncDec(pass, n, inTick)
				}
				return true
			})
		}
	}
	return nil
}

// checkNarrowing flags integer conversions that shrink an int64 cycle value.
func checkNarrowing(pass *Pass, call *ast.CallExpr) {
	if len(call.Args) != 1 {
		return
	}
	tv, ok := pass.Info.Types[call.Fun]
	if !ok || !tv.IsType() {
		return
	}
	dst, ok := tv.Type.Underlying().(*types.Basic)
	if !ok || dst.Info()&types.IsInteger == 0 {
		return
	}
	switch dst.Kind() {
	case types.Int64, types.Uint64, types.Uintptr:
		return // same width: no precision loss
	}
	argType := pass.Info.Types[call.Args[0]].Type
	if argType == nil {
		return
	}
	src, ok := argType.Underlying().(*types.Basic)
	if !ok || src.Kind() != types.Int64 {
		return
	}
	if name := cycleName(call.Args[0]); name != "" {
		pass.Reportf(call.Pos(), "narrowing cycle value %s from int64 to %s wraps on long runs; keep cycle arithmetic in int64", name, dst.Name())
	}
}

// cycleName returns the first cycle-ish identifier mentioned in expr
// ("now", or any name containing "cycle"/"Cycle"), or "".
func cycleName(expr ast.Expr) string {
	var found string
	ast.Inspect(expr, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if id.Name == "now" || strings.Contains(id.Name, "cycle") || strings.Contains(id.Name, "Cycle") {
			found = id.Name
			return false
		}
		return true
	})
	return found
}

func checkCycleAssign(pass *Pass, as *ast.AssignStmt, inTick bool) {
	if as.Tok == token.DEFINE {
		return // `now := ...` introduces a local timebase, it does not shift one
	}
	for _, lhs := range as.Lhs {
		switch l := lhs.(type) {
		case *ast.Ident:
			if l.Name == "now" {
				pass.Reportf(as.Pos(), "reassigning now desynchronizes this component from the global cycle; derive a new variable instead")
			}
		case *ast.SelectorExpr:
			if cycleFields[l.Sel.Name] && !inTick {
				pass.Reportf(as.Pos(), "cycle state %s written outside Tick/Step; only tick entry points may advance the timebase", l.Sel.Name)
			}
		}
	}
}

func checkCycleIncDec(pass *Pass, st *ast.IncDecStmt, inTick bool) {
	switch x := st.X.(type) {
	case *ast.Ident:
		if x.Name == "now" {
			pass.Reportf(st.Pos(), "reassigning now desynchronizes this component from the global cycle; derive a new variable instead")
		}
	case *ast.SelectorExpr:
		if cycleFields[x.Sel.Name] && !inTick {
			pass.Reportf(st.Pos(), "cycle state %s written outside Tick/Step; only tick entry points may advance the timebase", x.Sel.Name)
		}
	}
}

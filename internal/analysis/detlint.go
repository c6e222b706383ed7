package analysis

import (
	"go/ast"
	"go/types"
)

// Detlint hunts nondeterminism sources that would break the simulator's
// bit-for-bit reproducibility guarantee (see internal/invariant/determinism):
//
//   - iteration over a map whose visit order can reach simulator state or
//     output, unless the loop only collects keys/values into a slice that
//     the same function later sorts;
//   - time.Now, which injects wall-clock timing into a cycle-driven model;
//   - the global math/rand functions, whose shared seed state couples
//     independent runs (a locally seeded *rand.Rand is fine);
//   - maps keyed by pointers, whose iteration order tracks allocation
//     addresses.
var Detlint = &Analyzer{
	Name:  "detlint",
	Doc:   "reports nondeterminism sources: unordered map iteration, wall-clock time, global rand, pointer-keyed maps",
	Scope: scopeOf("sim", "mem", "sched", "prefetch", "stats", "core", "experiments", "obs", "profile", "hostprof", "memlens", "schedlens", "lens", "lenses", "flight", "cmd"),
	Run:   runDetlint,
}

func runDetlint(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkMapRanges(pass, n.Body)
				}
			case *ast.CallExpr:
				checkClockAndRand(pass, n)
			case *ast.MapType:
				checkPointerKey(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkMapRanges flags every range over a map in body except the
// collect-then-sort idiom: a loop that only appends to a slice which a
// later statement of the same function passes to a sort.* / slices.Sort*
// call, making the final order independent of map iteration.
func checkMapRanges(pass *Pass, body *ast.BlockStmt) {
	sorted := sortedSlices(pass, body)
	ast.Inspect(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pass.Info.Types[rng.X].Type
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		if collectsIntoSorted(pass, rng, sorted) {
			return true
		}
		pass.Reportf(rng.Pos(), "map iteration order is nondeterministic; collect keys and sort, or iterate a stable index")
		return true
	})
}

// sortedSlices returns the objects of every slice passed to a sort.* or
// slices.Sort* call anywhere in body.
func sortedSlices(pass *Pass, body *ast.BlockStmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg := packageOf(pass, sel.X)
		if pkg != "sort" && pkg != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if obj := rootObject(pass, arg); obj != nil {
				out[obj] = true
			}
		}
		return true
	})
	return out
}

// collectsIntoSorted reports whether every statement of the range body is an
// append onto a slice from sorted (or a bare assignment of such an append).
func collectsIntoSorted(pass *Pass, rng *ast.RangeStmt, sorted map[types.Object]bool) bool {
	if len(rng.Body.List) == 0 {
		return false
	}
	for _, stmt := range rng.Body.List {
		as, ok := stmt.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return false
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return false
		}
		fn, ok := call.Fun.(*ast.Ident)
		if !ok || fn.Name != "append" {
			return false
		}
		obj := rootObject(pass, as.Lhs[0])
		if obj == nil || !sorted[obj] {
			return false
		}
	}
	return true
}

// checkClockAndRand flags time.Now and the global math/rand functions.
func checkClockAndRand(pass *Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	switch packageOf(pass, sel.X) {
	case "time":
		if sel.Sel.Name == "Now" {
			pass.Reportf(call.Pos(), "time.Now injects wall-clock nondeterminism; derive timing from the cycle counter")
		}
	case "math/rand", "math/rand/v2":
		switch sel.Sel.Name {
		case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
			// Constructors for locally seeded generators are the fix,
			// not the bug.
		default:
			pass.Reportf(call.Pos(), "global math/rand.%s shares seed state across runs; use a locally seeded *rand.Rand", sel.Sel.Name)
		}
	}
}

// checkPointerKey flags map types keyed by pointers.
func checkPointerKey(pass *Pass, mt *ast.MapType) {
	t := pass.Info.Types[mt.Key].Type
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Pointer); ok {
		pass.Reportf(mt.Pos(), "map keyed by pointer iterates in allocation order; key by a stable ID instead")
	}
}

// packageOf returns the import path of expr when it names an imported
// package, else "".
func packageOf(pass *Pass, expr ast.Expr) string {
	id, ok := expr.(*ast.Ident)
	if !ok {
		return ""
	}
	if pn, ok := pass.Info.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}

// rootObject resolves expr to the object of its base identifier (peeling
// index/selector/paren layers), or nil.
func rootObject(pass *Pass, expr ast.Expr) types.Object {
	for {
		switch e := expr.(type) {
		case *ast.Ident:
			return pass.Info.ObjectOf(e)
		case *ast.ParenExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.SliceExpr:
			expr = e.X
		case *ast.SelectorExpr:
			expr = e.Sel
		default:
			return nil
		}
	}
}

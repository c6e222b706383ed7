package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Statlint protects the statistics contract: stats.Sim counters accumulate
// monotonically at the collection site, and anything fancier (replay
// un-counting, resets) must go through a named accessor inside
// internal/stats where the adjustment is documented once. It reports:
//
//   - decrements, compound subtractions, or plain overwrites of a
//     stats.Sim field outside package stats (++ and += are the sanctioned
//     collection forms);
//   - panic calls whose only argument is a bare string literal in the
//     hot-path packages — a panic fired mid-simulation must carry state
//     (cycle, address, component) or it is undebuggable.
//
// The same contract extends to internal/obs metric accumulation: an
// obs.Counter is append-only by construction (it exposes only Inc/Add),
// and hook sites increment it next to the matching stats.Sim field so the
// two stay reconcilable (internal/sim's TestObsReconcilesWithStats). A
// site that must update one without the other — or adjust a counter
// non-monotonically through some future accessor — is exactly the
// double-accounting hazard this lint exists to flag, and needs a
// //simcheck:allow statlint waiver explaining why the obs and stats views
// legitimately diverge there.
var Statlint = &Analyzer{
	Name:  "statlint",
	Doc:   "reports non-monotonic stats.Sim writes outside internal/stats and context-free panics in hot paths",
	Scope: scopeOf("sim", "mem", "sched", "core", "prefetch", "experiments", "obs", "profile", "hostprof", "memlens", "schedlens", "lens", "lenses", "flight", "cmd"),
	Run:   runStatlint,
}

const statsPkgPath = "caps/internal/stats"

func runStatlint(pass *Pass) error {
	inStats := pass.Pkg != nil && pass.Pkg.Path() == statsPkgPath
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if !inStats {
					checkStatAssign(pass, n)
				}
			case *ast.IncDecStmt:
				if !inStats {
					checkStatIncDec(pass, n)
				}
			case *ast.CallExpr:
				checkBarePanic(pass, n)
			}
			return true
		})
	}
	return nil
}

func checkStatAssign(pass *Pass, as *ast.AssignStmt) {
	for _, lhs := range as.Lhs {
		sel, ok := lhs.(*ast.SelectorExpr)
		if !ok || !isSimField(pass, sel) {
			continue
		}
		switch as.Tok {
		case token.ADD_ASSIGN:
			// += is a sanctioned accumulation form.
		case token.ASSIGN, token.DEFINE:
			pass.Reportf(as.Pos(), "stats counter %s overwritten outside internal/stats; counters accumulate, resets belong in a stats accessor", sel.Sel.Name)
		default:
			pass.Reportf(as.Pos(), "stats counter %s adjusted with %s outside internal/stats; add an accessor in package stats documenting the correction", sel.Sel.Name, as.Tok)
		}
	}
}

func checkStatIncDec(pass *Pass, st *ast.IncDecStmt) {
	sel, ok := st.X.(*ast.SelectorExpr)
	if !ok || !isSimField(pass, sel) {
		return
	}
	if st.Tok == token.DEC {
		pass.Reportf(st.Pos(), "stats counter %s decremented outside internal/stats; add an accessor in package stats documenting the correction", sel.Sel.Name)
	}
}

// isSimField reports whether sel selects a field of stats.Sim.
func isSimField(pass *Pass, sel *ast.SelectorExpr) bool {
	s, ok := pass.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return false
	}
	recv := s.Recv()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Sim" && obj.Pkg() != nil && obj.Pkg().Path() == statsPkgPath
}

// checkBarePanic flags panic("...") — a literal-only panic in a hot path
// loses the state needed to debug it. panic(fmt.Sprintf(...)) passes.
func checkBarePanic(pass *Pass, call *ast.CallExpr) {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "panic" || len(call.Args) != 1 {
		return
	}
	if obj := pass.Info.Uses[id]; obj != nil {
		if _, isBuiltin := obj.(*types.Builtin); !isBuiltin {
			return // a local function shadowing the builtin
		}
	}
	if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
		pass.Reportf(call.Pos(), "panic with a context-free message in a hot path; include cycle/address/component state via fmt.Sprintf")
	}
}

// Package lockorder enforces the data-plane's VM-lock ordering protocol:
// a goroutine holding one Shim's mu must not take another Shim's mu
// directly. Multi-shim sections must go through the ordered helpers
// (lockShims/unlockShims and the pairLock/pairUnlock wrappers), which
// sort the shims by identity before acquiring. Nested direct takes are
// the classic AB/BA deadlock: transfer A→B locking (A, B) racing
// transfer B→A locking (B, A).
package lockorder

import (
	"go/ast"
	"slices"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/ctrlflow"
	"golang.org/x/tools/go/cfg"

	"github.com/polaris-slo-cloud/roadrunner-go/internal/analysis/matchutil"
)

// ownerType/fieldName identify the VM lock: the mu field on Shim.
const (
	ownerType = "Shim"
	fieldName = "mu"
)

// orderedHelpers are the functions allowed to take several VM locks;
// they own the ordering discipline, so lock events inside them are
// exempt.
var orderedHelpers = map[string]bool{
	"lockShims":   true,
	"unlockShims": true,
}

// Analyzer is the lockorder pass.
var Analyzer = &analysis.Analyzer{
	Name:     "lockorder",
	Doc:      "check that nested VM-lock (Shim.mu) acquisitions go through the ordered lockShims helper",
	Requires: []*analysis.Analyzer{ctrlflow.Analyzer},
	Run:      run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	cfgs := pass.ResultOf[ctrlflow.Analyzer].(*ctrlflow.CFGs)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body == nil || orderedHelpers[fn.Name.Name] {
					return true
				}
				checkFunc(pass, cfgs.FuncDecl(fn))
			case *ast.FuncLit:
				checkFunc(pass, cfgs.FuncLit(fn))
			}
			return true
		})
	}
	return nil, nil
}

// lockEvent is one VM-lock operation found in a CFG node.
type lockEvent struct {
	call     *ast.CallExpr
	owner    string // rendered owner expression, e.g. "src" in src.mu.Lock()
	op       string // "Lock" or "Unlock"
	deferred bool
}

// checkFunc walks the function's CFG tracking the set of held VM locks
// per path and reports any second direct acquisition while one is held.
func checkFunc(pass *analysis.Pass, g *cfg.CFG) {
	if g == nil || len(g.Blocks) == 0 {
		return
	}

	// held sets are small (the protocol allows at most one direct
	// holding); the path state is their sorted, space-joined rendering.
	reported := make(map[*ast.CallExpr]bool)
	matchutil.Paths(g.Blocks[0], 0, "", func(b *cfg.Block, i int, held string) (string, bool) {
		cur := strings.Fields(held)
		for _, ev := range lockEventsIn(pass, b.Nodes[i]) {
			holds := slices.Contains(cur, ev.owner)
			switch {
			case ev.op == "Lock":
				if len(cur) > 0 && !holds && !reported[ev.call] {
					reported[ev.call] = true
					pass.Reportf(ev.call.Pos(),
						"nested VM-lock acquisition: %s.mu taken while another Shim.mu is held; order multi-shim sections through lockShims to avoid AB/BA deadlock",
						ev.owner)
				}
				if !ev.deferred && !holds {
					cur = append(cur, ev.owner)
					slices.Sort(cur)
				}
			case !ev.deferred:
				// A deferred unlock releases at function exit; within
				// the function body the lock stays held.
				cur = slices.DeleteFunc(cur, func(o string) bool { return o == ev.owner })
			}
		}
		return strings.Join(cur, " "), false
	}, func(b *cfg.Block, _ string) []*cfg.Block { return b.Succs })
}

// lockEventsIn extracts VM-lock operations from one CFG node, skipping
// nested function literals (their bodies run on another goroutine or at
// another time and have their own CFGs).
func lockEventsIn(pass *analysis.Pass, n ast.Node) []lockEvent {
	var evs []lockEvent
	isDefer := false
	if d, ok := n.(*ast.DeferStmt); ok {
		isDefer = true
		n = d.Call
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if owner, op, ok := matchutil.MutexField(pass.TypesInfo, call, ownerType, fieldName); ok {
			evs = append(evs, lockEvent{call: call, owner: exprString(owner), op: op, deferred: isDefer})
		}
		return true
	})
	return evs
}

func exprString(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return exprString(v.X) + "." + v.Sel.Name
	case *ast.ParenExpr:
		return exprString(v.X)
	case *ast.StarExpr:
		return "*" + exprString(v.X)
	case *ast.IndexExpr:
		return exprString(v.X) + "[...]"
	case *ast.CallExpr:
		return exprString(v.Fun) + "(...)"
	}
	return "?"
}

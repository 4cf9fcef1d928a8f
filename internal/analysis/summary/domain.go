package summary

// domain.go is the matcher half of roadvet's obligation table: for every
// resource domain, which calls acquire an obligation and which release
// one. It lives here — below the obligation engine, beside the Domain
// constants — so the summaries and the analyzers read the same
// definition: a release the engine recognises in a caller is the release
// Consumes recognises in a callee. Matching is structural (method name
// plus the receiver type's declared name), so the table applies equally
// to the data-plane packages and to analyzertest fixtures that stub them.

import (
	"go/ast"
	"go/types"

	"github.com/polaris-slo-cloud/roadrunner-go/internal/analysis/matchutil"
)

// Domain is one resource-obligation domain the analyzers track.
type Domain string

const (
	// Region is the wasm linear-memory region domain: View.Allocate /
	// Deallocate on View, Function, Instance (regionrelease).
	Region Domain = "region"
	// Pool is the sync.Pool recycle domain: Get / Put (poolreturn).
	Pool Domain = "pool"
	// Ref is the pagebuf page-reference domain: any call returning Ref or
	// []Ref / Ref.Release, ReleaseAll (refbalance).
	Ref Domain = "ref"
	// Window is the send-window credit: sendWindow.reserve / push
	// (windowcredit).
	Window Domain = "window"
)

// Matcher is one domain's acquire and release matchers. A domain is
// object-keyed (Acquire set: the obligation rides on a result value, and
// Consumes/Returns are its summary columns) or bracket-keyed (Enter set:
// the obligation is named by the call's rendered operands, and
// Enters/Exits are its summary columns).
type Matcher struct {
	Domain Domain
	// Acquire returns the result positions of call that carry a fresh
	// obligation, nil when call acquires nothing.
	Acquire func(info *types.Info, call *ast.CallExpr) []int
	// Enter returns the operands naming the bracket call opens — the
	// receiver, then the key argument if the bracket has one — nil when
	// call opens nothing.
	Enter func(info *types.Info, call *ast.CallExpr) []ast.Expr
	// Release returns the operands call releases: the expressions holding
	// the released objects, or the operands naming the bracket it closes
	// (as Enter renders them). Nil when call releases nothing.
	Release func(info *types.Info, call *ast.CallExpr) []ast.Expr
}

// Table is the matcher of every domain, in a fixed order.
var Table = []*Matcher{
	{Domain: Region,
		Acquire: result0(method("Allocate", "View")),
		Release: argsOf(method("Deallocate", "View", "Function", "Instance"))},
	{Domain: Pool,
		Acquire: result0(poolMethod("Get")),
		Release: argsOf(poolMethod("Put"))},
	{Domain: Ref,
		Acquire: refResults,
		Release: refReleased},
	{Domain: Window,
		Enter:   bracketOf(0, method("reserve", "sendWindow")),
		Release: bracketOf(0, method("push", "sendWindow"))},
}

// MatcherOf returns the domain's matcher.
func MatcherOf(d Domain) *Matcher {
	for _, m := range Table {
		if m.Domain == d {
			return m
		}
	}
	return nil
}

// callPred recognises one kind of call.
type callPred func(info *types.Info, call *ast.CallExpr) bool

// method matches a call of the named method on a receiver whose declared
// type name is one of typeNames.
func method(name string, typeNames ...string) callPred {
	return func(info *types.Info, call *ast.CallExpr) bool {
		_, ok := matchutil.MethodOnAny(info, call, typeNames, name)
		return ok
	}
}

// poolMethod matches a call of the named (*sync.Pool) method.
func poolMethod(name string) callPred {
	return func(info *types.Info, call *ast.CallExpr) bool {
		return matchutil.SyncPoolMethod(info, call, name)
	}
}

// result0 is the Acquire matcher of calls whose obligation rides on
// their first result.
func result0(is callPred) func(*types.Info, *ast.CallExpr) []int {
	return func(info *types.Info, call *ast.CallExpr) []int {
		if is(info, call) {
			return []int{0}
		}
		return nil
	}
}

// argsOf is the Release matcher of calls that release what they are
// passed.
func argsOf(is callPred) func(*types.Info, *ast.CallExpr) []ast.Expr {
	return func(info *types.Info, call *ast.CallExpr) []ast.Expr {
		if is(info, call) {
			return call.Args
		}
		return nil
	}
}

// bracketOf is the Enter/Release matcher of method calls that open or
// close the bracket named by their receiver and first nargs arguments.
func bracketOf(nargs int, is callPred) func(*types.Info, *ast.CallExpr) []ast.Expr {
	return func(info *types.Info, call *ast.CallExpr) []ast.Expr {
		if !is(info, call) || len(call.Args) < nargs {
			return nil
		}
		return append(receiverOf(call), call.Args[:nargs]...)
	}
}

// receiverOf returns a method call's receiver expression as an operand
// list.
func receiverOf(call *ast.CallExpr) []ast.Expr {
	return []ast.Expr{call.Fun.(*ast.SelectorExpr).X}
}

var isRefRelease = method("Release", "Ref")

// refReleased matches Ref.Release (releasing its receiver) and ReleaseAll
// (releasing its arguments).
func refReleased(info *types.Info, call *ast.CallExpr) []ast.Expr {
	if isRefRelease(info, call) {
		return receiverOf(call)
	}
	if matchutil.CalleeName(call) == "ReleaseAll" {
		return call.Args
	}
	return nil
}

// refResults returns the result positions where call produces a Ref or
// []Ref: a real call — not a conversion, and not a make/new allocation
// (an empty []Ref holds no references). Acquire sites are found by result
// type, not callee name, so new producers are in scope the day they are
// written.
func refResults(info *types.Info, call *ast.CallExpr) []int {
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return nil
	}
	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, ok := matchutil.Obj(info, id).(*types.Builtin); ok && (b.Name() == "make" || b.Name() == "new") {
			return nil
		}
	}
	return resultsWhere(info, call, func(t types.Type) bool {
		if sl, ok := t.(*types.Slice); ok {
			t = sl.Elem()
		}
		return matchutil.NamedName(t) == "Ref"
	})
}

// resultsWhere returns the positions of call's results whose type
// satisfies pred.
func resultsWhere(info *types.Info, call *ast.CallExpr, pred func(types.Type) bool) []int {
	var out []int
	switch t := info.Types[call].Type.(type) {
	case nil:
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if pred(t.At(i).Type()) {
				out = append(out, i)
			}
		}
	default:
		if pred(t) {
			out = append(out, 0)
		}
	}
	return out
}

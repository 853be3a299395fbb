package analysis

import (
	"go/ast"
	"go/types"
	"slices"
)

// NewErrWire returns the errwire analyzer: no call site anywhere in the
// module may discard an error returned by a function or method of the
// wire package (wirePkg), or by one of decoders (types.Func full names,
// "import/path.name") — the §11 contract is that decoders never panic on
// hostile input *because* every caller checks the error; a dropped error
// silently turns corrupt input into stale or zeroed state. Flagged
// shapes: a bare expression statement, go/defer statements, and
// assignments of the error result to the blank identifier.
func NewErrWire(wirePkg string, decoders ...string) *Analyzer {
	a := &Analyzer{
		Name: "errwire",
		Doc:  "errors from wire and body decode calls must not be discarded",
	}
	covered := func(f *types.Func) bool {
		return f.Pkg().Path() == wirePkg || slices.Contains(decoders, f.FullName())
	}
	report := func(pass *Pass, call *ast.CallExpr, how string) {
		f := funcObj(pass.Info, call)
		pass.Reportf(call.Pos(), "%s error from %s.%s discarded: decoders report corruption only through their error (§11)", how, f.Pkg().Name(), f.Name())
	}
	a.Run = func(pass *Pass) {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch st := n.(type) {
				case *ast.ExprStmt:
					if call, ok := st.X.(*ast.CallExpr); ok && wireErrCall(pass, call, covered) {
						report(pass, call, "unchecked")
					}
				case *ast.GoStmt:
					if wireErrCall(pass, st.Call, covered) {
						report(pass, st.Call, "unchecked")
					}
				case *ast.DeferStmt:
					if wireErrCall(pass, st.Call, covered) {
						report(pass, st.Call, "unchecked")
					}
				case *ast.AssignStmt:
					checkWireAssign(pass, st, covered, report)
				}
				return true
			})
		}
	}
	return a
}

// wireErrCall reports whether call invokes a covered function or method
// whose results include an error.
func wireErrCall(pass *Pass, call *ast.CallExpr, covered func(*types.Func) bool) bool {
	f := funcObj(pass.Info, call)
	if f == nil || f.Pkg() == nil || !covered(f) {
		return false
	}
	return errResultIndex(f) >= 0
}

// errResultIndex returns the index of the error result of f's signature,
// or -1.
func errResultIndex(f *types.Func) int {
	sig, ok := f.Type().(*types.Signature)
	if !ok {
		return -1
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if isErrorType(sig.Results().At(i).Type()) {
			return i
		}
	}
	return -1
}

// checkWireAssign flags assignments that bind a covered call's error
// result to the blank identifier.
func checkWireAssign(pass *Pass, as *ast.AssignStmt, covered func(*types.Func) bool, report func(*Pass, *ast.CallExpr, string)) {
	// Multi-value form: x, err := call().
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok || !wireErrCall(pass, call, covered) {
			return
		}
		idx := errResultIndex(funcObj(pass.Info, call))
		if idx < len(as.Lhs) && isBlank(as.Lhs[idx]) {
			report(pass, call, "blank-assigned")
		}
		return
	}
	// One-to-one form: _ = call().
	for i, rhs := range as.Rhs {
		if i >= len(as.Lhs) || !isBlank(as.Lhs[i]) {
			continue
		}
		if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && wireErrCall(pass, call, covered) {
			// Only flag when the discarded value IS the error (a
			// single-result error function).
			f := funcObj(pass.Info, call)
			if sig, ok := f.Type().(*types.Signature); ok && sig.Results().Len() == 1 {
				report(pass, call, "blank-assigned")
			}
		}
	}
}

// isBlank reports whether e is the blank identifier.
func isBlank(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "_"
}

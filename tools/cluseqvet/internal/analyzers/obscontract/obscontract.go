// Package obscontract enforces the observability layer's contracts.
// First, nil handles are no-ops: every exported pointer-receiver method
// on an exported internal/obs type must begin with a nil-receiver guard
// (or be a single-statement delegation to another method on the same
// receiver, which inherits the guard). Second, metric names registered
// as string literals must be valid Prometheus series names and unique
// across the whole program — two packages registering the same name, or
// the same name as different metric kinds, collide silently at runtime.
// Third, span names passed as literals to RequestTrace.StartSpan and
// RequestTrace.StartSpanUnder, the only span openers, must be lower_snake
// identifiers (the span taxonomy is grep'd by dashboards and the CI
// trace-identity check), and a span started into a named handle must be
// ended — by a direct End call or a defer — somewhere in the same
// function, or it sits open in the flight recorder forever (dur_us -1).
package obscontract

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strconv"
	"strings"

	"cluseq/tools/cluseqvet/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "obscontract",
	Doc:  "check obs handle nil-guards and Prometheus metric-name validity/uniqueness",
	Run:  run,
}

// metricNameRE is the Prometheus data-model rule for series names.
var metricNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// spanNameRE is the repo's span taxonomy rule: lower_snake identifiers
// like "classify_scan" or "stream_queue_wait".
var spanNameRE = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// registrars maps obs.Registry constructor-method names to metric kinds.
var registrars = map[string]string{
	"Counter":   "counter",
	"Gauge":     "gauge",
	"Histogram": "histogram",
}

// spanStarters maps obs span-opening method names to (receiver type,
// index of the name argument).
var spanStarters = map[string]struct {
	recv    string
	nameArg int
}{
	"StartSpan":      {"RequestTrace", 0},
	"StartSpanUnder": {"RequestTrace", 1},
}

func run(pass *analysis.Pass) error {
	inObs := strings.HasSuffix(pass.Pkg.Path(), "internal/obs")
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass, f) {
			continue
		}
		if inObs {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok {
					checkNilGuard(pass, fd)
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				checkRegistration(pass, call)
				checkSpanName(pass, call)
			}
			return true
		})
		if !inObs {
			// internal/obs itself is the implementation: StartSpan returns
			// the handle to its caller by design.
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					checkSpanEnds(pass, fd)
				}
			}
		}
	}
	return nil
}

// checkNilGuard requires exported pointer-receiver methods on exported
// types to start with `if recv == nil { ... }` (possibly ||-combined
// with other conditions), or to consist of exactly one statement that
// calls another method on the same receiver.
func checkNilGuard(pass *analysis.Pass, fd *ast.FuncDecl) {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || fd.Body == nil || !fd.Name.IsExported() {
		return
	}
	recvType := fd.Recv.List[0].Type
	st, ok := recvType.(*ast.StarExpr)
	if !ok {
		return // value receivers can't be nil
	}
	base, ok := st.X.(*ast.Ident)
	if !ok || !base.IsExported() {
		return
	}
	var recvIdent *ast.Ident
	if names := fd.Recv.List[0].Names; len(names) > 0 && names[0].Name != "_" {
		recvIdent = names[0]
	}
	if recvIdent == nil {
		// Unnamed receiver: the body cannot dereference it, so nil is
		// trivially safe.
		return
	}
	recvObj := analysis.ObjOf(pass.Info, recvIdent)

	if len(fd.Body.List) > 0 {
		if ifs, ok := fd.Body.List[0].(*ast.IfStmt); ok && condChecksNil(pass.Info, ifs.Cond, recvObj) {
			return
		}
	}
	if len(fd.Body.List) == 1 && delegatesToReceiver(pass.Info, fd.Body.List[0], recvObj) {
		return
	}
	pass.Reportf(fd.Name.Pos(), "exported method (*%s).%s must begin with a nil-receiver guard", base.Name, fd.Name.Name)
}

// condChecksNil reports whether cond contains `recv == nil`.
func condChecksNil(info *types.Info, cond ast.Expr, recv types.Object) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		b, ok := n.(*ast.BinaryExpr)
		if !ok || b.Op != token.EQL {
			return !found
		}
		x, y := ast.Unparen(b.X), ast.Unparen(b.Y)
		if isObj(info, x, recv) && isNil(info, y) || isObj(info, y, recv) && isNil(info, x) {
			found = true
		}
		return !found
	})
	return found
}

// delegatesToReceiver reports whether stmt is a bare call (or return of
// a call) to a method on recv — e.g. `func (c *Counter) Inc() { c.Add(1) }`.
// The callee's own guard covers the nil case.
func delegatesToReceiver(info *types.Info, stmt ast.Stmt, recv types.Object) bool {
	var call *ast.CallExpr
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		call, _ = s.X.(*ast.CallExpr)
	case *ast.ReturnStmt:
		if len(s.Results) == 1 {
			call, _ = s.Results[0].(*ast.CallExpr)
		}
	}
	if call == nil {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	return isObj(info, ast.Unparen(sel.X), recv)
}

func isObj(info *types.Info, e ast.Expr, obj types.Object) bool {
	id, ok := e.(*ast.Ident)
	return ok && analysis.ObjOf(info, id) == obj
}

func isNil(info *types.Info, e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	_, isNilObj := analysis.ObjOf(info, id).(*types.Nil)
	return isNilObj
}

// checkRegistration validates literal metric names passed to
// (*obs.Registry).Counter/Gauge/Histogram anywhere in the program and
// records them in the shared index for cross-package uniqueness.
func checkRegistration(pass *analysis.Pass, call *ast.CallExpr) {
	f := analysis.Callee(pass.Info, call)
	if f == nil || f.Pkg() == nil {
		return
	}
	kind, ok := registrars[f.Name()]
	if !ok {
		return
	}
	sig, _ := f.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return
	}
	recv := sig.Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Name() != "Registry" || !strings.HasSuffix(named.Obj().Pkg().Path(), "internal/obs") {
		return
	}
	if len(call.Args) == 0 {
		return
	}
	lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return // dynamically built names are out of static reach; skip
	}
	name, err := strconv.Unquote(lit.Value)
	if err != nil {
		return
	}
	if !metricNameRE.MatchString(name) {
		pass.Reportf(lit.Pos(), "invalid Prometheus metric name %q", name)
		return
	}
	pos := pass.Fset.Position(lit.Pos())
	site := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
	var sameKind, otherKind *analysis.MetricReg
	for _, prev := range pass.Index.Metrics(name) {
		if prev.Site == site {
			continue
		}
		prev := prev
		if prev.Kind == kind {
			if sameKind == nil {
				sameKind = &prev
			}
		} else if otherKind == nil {
			otherKind = &prev
		}
	}
	switch {
	case sameKind != nil:
		pass.Reportf(lit.Pos(), "metric %q already registered at %s; share one handle instead", name, sameKind.Site)
	case otherKind != nil:
		pass.Reportf(lit.Pos(), "metric %q registered as %s here but as %s at %s", name, kind, otherKind.Kind, otherKind.Site)
	}
	pass.Index.AddMetric(analysis.MetricReg{Name: name, Kind: kind, Pkg: pass.Pkg.Path(), Site: site})
}

// spanStarter resolves call to an obs span-opening method, returning
// the index of its name argument, or -1 when it is something else.
func spanStarter(info *types.Info, call *ast.CallExpr) int {
	f := analysis.Callee(info, call)
	if f == nil || f.Pkg() == nil {
		return -1
	}
	want, ok := spanStarters[f.Name()]
	if !ok {
		return -1
	}
	sig, _ := f.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return -1
	}
	recv := sig.Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Name() != want.recv || named.Obj().Pkg() == nil ||
		!strings.HasSuffix(named.Obj().Pkg().Path(), "internal/obs") {
		return -1
	}
	return want.nameArg
}

// checkSpanName validates literal span names passed to obs span
// openers, the same way literal metric names are validated.
func checkSpanName(pass *analysis.Pass, call *ast.CallExpr) {
	nameArg := spanStarter(pass.Info, call)
	if nameArg < 0 || len(call.Args) <= nameArg {
		return
	}
	lit, ok := ast.Unparen(call.Args[nameArg]).(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return // dynamically built names are out of static reach; skip
	}
	name, err := strconv.Unquote(lit.Value)
	if err != nil {
		return
	}
	if !spanNameRE.MatchString(name) {
		pass.Reportf(lit.Pos(), "invalid span name %q (want lower_snake like \"classify_scan\")", name)
	}
}

// checkSpanEnds flags spans opened in fd that can never close: a span
// handle that is discarded outright, or assigned to a variable with no
// End call (direct or deferred, including inside func literals) anywhere
// in the same function. Handles that escape through other expressions —
// returned, passed along, stored — are out of static reach and skipped.
func checkSpanEnds(pass *analysis.Pass, fd *ast.FuncDecl) {
	type open struct {
		pos  token.Pos
		name string // method name, for the diagnostic
		obj  types.Object
	}
	var opens []open
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok && spanStarter(pass.Info, call) >= 0 {
				opens = append(opens, open{pos: call.Pos(), name: starterName(pass.Info, call)})
			}
		case *ast.AssignStmt:
			if len(s.Rhs) != 1 || len(s.Lhs) != 1 {
				return true
			}
			call, ok := s.Rhs[0].(*ast.CallExpr)
			if !ok || spanStarter(pass.Info, call) < 0 {
				return true
			}
			id, ok := s.Lhs[0].(*ast.Ident)
			if !ok {
				return true
			}
			if id.Name == "_" {
				opens = append(opens, open{pos: call.Pos(), name: starterName(pass.Info, call)})
				return true
			}
			opens = append(opens, open{pos: call.Pos(), name: starterName(pass.Info, call), obj: analysis.ObjOf(pass.Info, id)})
		}
		return true
	})
	if len(opens) == 0 {
		return
	}
	ended := map[types.Object]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "End" {
			return true
		}
		if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
			if obj := analysis.ObjOf(pass.Info, id); obj != nil {
				ended[obj] = true
			}
		}
		return true
	})
	for _, o := range opens {
		if o.obj == nil {
			pass.Reportf(o.pos, "%s discards its span handle; the span can never be ended", o.name)
			continue
		}
		if !ended[o.obj] {
			pass.Reportf(o.pos, "span from %s is never ended in this function; call %s.End (or defer it)", o.name, o.obj.Name())
		}
	}
}

// starterName names the span-opening method for diagnostics.
func starterName(info *types.Info, call *ast.CallExpr) string {
	if f := analysis.Callee(info, call); f != nil {
		return f.Name()
	}
	return "span start"
}

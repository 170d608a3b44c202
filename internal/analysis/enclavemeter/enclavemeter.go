// Package enclavemeter enforces the metered-enclave-boundary
// discipline: every touch of the matcher store — a scheme.Slice
// method or one of streamhub.Hub's direct per-slice methods — must
// happen inside a charged enclave entry, either an sgx.Enclave.Ecall
// body or a resident slice worker. A store access outside
// that boundary silently bypasses the simulated EPC cost model
// (internal/simmem), so every paper-facing number produced afterwards
// lies about enclave transition and paging cost.
//
// The check is lexical: a call to a metered method must sit inside a
// function literal passed to an Ecall call, or inside a function
// whose doc comment carries the boundary marker
//
//	// scbr:vet enclave-boundary: <why the meter is already charged>
//
// which is how the resident workers — whose enclave entry is charged
// once via ChargeTransition, not per call — declare themselves. The
// marker requires a justification, like every suppression.
//
// Packages that *are* the mechanism below the boundary (streamhub,
// scheme, aspe, core, sgx) are exempt: the invariant binds their
// callers.
package enclavemeter

import (
	"go/ast"
	"regexp"
	"strings"

	"scbr/internal/analysis"
)

// Analyzer is the enclavemeter analysis.
var Analyzer = &analysis.Analyzer{
	Name: "enclavemeter",
	Doc:  "check that matcher-store touches happen inside a metered enclave boundary",
	Run:  run,
}

// exempt packages implement the data plane below the boundary.
var exempt = map[string]bool{
	"streamhub": true, "scheme": true, "aspe": true, "core": true, "sgx": true,
}

// hubMethods are streamhub.Hub's direct per-slice store touches.
var hubMethods = map[string]bool{
	"MatchEncodedBatchIn": true, "MatchRecordsIn": true, "RegisterEncodedAt": true,
	"RegisterEncodedAssigned": true, "UnregisterIn": true, "DropCopy": true,
}

// sliceMethods are the scheme.Slice store surface.
var sliceMethods = map[string]bool{
	"Configure": true, "RegisterEncodedAssigned": true, "Unregister": true,
	"MatchRecords": true,
}

// boundaryRE matches the resident-worker marker in a doc comment.
var boundaryRE = regexp.MustCompile(`scbr:vet enclave-boundary\s*(?::\s*(.*))?`)

func run(pass *analysis.Pass) (any, error) {
	if exempt[pass.Pkg.Name()] {
		return nil, nil
	}
	for _, fn := range pass.FuncDecls() {
		if sanctioned, ok := boundaryMarked(pass, fn); ok {
			if !sanctioned {
				pass.Reportf(fn.Pos(), "enclave-boundary marker without justification: add a reason after the colon")
			}
			continue
		}
		check(pass, fn.Body, false)
	}
	return nil, nil
}

// boundaryMarked reports whether fn carries the enclave-boundary
// marker, and whether it is justified.
func boundaryMarked(pass *analysis.Pass, fn *ast.FuncDecl) (justified, marked bool) {
	if fn.Doc == nil {
		return false, false
	}
	for _, c := range fn.Doc.List {
		if m := boundaryRE.FindStringSubmatch(c.Text); m != nil {
			return strings.TrimSpace(m[1]) != "", true
		}
	}
	return false, false
}

// check walks a body. inEcall is true while inside a function literal
// passed to an Ecall call; a nested literal NOT passed to Ecall (a
// goroutine spawned from inside the closure) leaves the boundary
// again.
func check(pass *analysis.Pass, body ast.Node, inEcall bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if _, method, ok := analysis.ReceiverAndMethod(n); ok && method == "Ecall" {
				// Non-literal arguments stay in the current context;
				// literal arguments enter the enclave.
				for _, arg := range n.Args {
					if lit, ok := arg.(*ast.FuncLit); ok {
						check(pass, lit.Body, true)
					} else {
						check(pass, arg, inEcall)
					}
				}
				check(pass, n.Fun, inEcall)
				return false
			}
			if metered(pass, n) && !inEcall {
				_, method, _ := analysis.ReceiverAndMethod(n)
				pass.Reportf(n.Pos(),
					"%s touches the matcher store outside the metered enclave boundary: wrap it in an Ecall body or mark the enclosing resident worker with a justified `scbr:vet enclave-boundary:` comment",
					method)
			}
		case *ast.FuncLit:
			// A literal reached here was not an Ecall argument (those
			// were consumed above): its body runs wherever it is later
			// invoked, which the lexical analysis must assume is
			// outside the enclave.
			check(pass, n.Body, false)
			return false
		}
		return true
	})
}

// metered reports whether call is a matcher-store touch: a
// scheme.Slice method or a streamhub.Hub per-slice method.
func metered(pass *analysis.Pass, call *ast.CallExpr) bool {
	recv, method, ok := analysis.ReceiverAndMethod(call)
	if !ok {
		return false
	}
	named := pass.NamedOf(recv)
	if named == nil {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	base := obj.Pkg().Name()
	switch {
	case obj.Name() == "Hub" && base == "streamhub":
		return hubMethods[method]
	case obj.Name() == "Slice" && base == "scheme":
		return sliceMethods[method]
	}
	return false
}

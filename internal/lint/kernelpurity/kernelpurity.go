// Package kernelpurity enforces the purity contract on columnar kernels —
// the functions bound as query.ColSpec / ops.ColStage stage funcs
// (FilterKernel, MapKernel, KeyKernel), ops.ColKey kernels, ColField
// extractors, and the stateful kernels bound in AggColSpec (Key, Fold) and
// JoinColSpec (LeftKey, RightKey, ResidualL, ResidualR).
//
// The vectorized runtime makes three assumptions a kernel must not break:
//
//   - ColBatch column slices are views over backing arrays the runtime
//     reuses from run to run, and the lazy fill only covers the live
//     positions — a kernel that writes into a column, mutates the Rows meta
//     column, returns a batch-owned slice, or stashes one in captured or
//     package-level state observes garbage on the next run (or corrupts the
//     tuples every downstream contribution graph pins by identity); ColSeg
//     columns (fold and probe kernels) are views over window state recycled
//     as windows slide, with the same rules;
//   - kernels run inside the operator loop, possibly on several shard lanes
//     at once over shared schemas — writing non-local state is a data race;
//   - kernels compute, operators communicate — a kernel that performs
//     stream I/O or spawns goroutines breaks the fusion and elision the
//     typed-kernel form exists to enable (an identity MapKernel returns nil
//     precisely so the runtime can skip it; it cannot skip side effects).
//
// Kernels are discovered statically: function literals or same-package
// functions bound in ColSpec/ColStage/ColKey/ColField composite literals or
// converted to the named kernel types.
package kernelpurity

import (
	"go/ast"
	"go/types"

	"genealog/internal/lint/analysis"
	"genealog/internal/lint/analysisutil"
)

const (
	opsPath   = "genealog/internal/ops"
	queryPath = "genealog/internal/query"
)

// kernelFields maps a declaring struct to the fields that hold kernels.
var kernelFields = map[string]map[string]bool{
	"ColSpec":  {"Filter": true, "Map": true},
	"ColStage": {"Filter": true, "Map": true},
	"ColKey":   {"Kernel": true},
	"ColField": {"Int": true, "Float": true, "Str": true},
	// Stateful binding sites: ops.AggColSpec/query.AggColSpec and
	// ops.JoinColSpec/query.JoinColSpec share field names, so one entry
	// covers both levels (fields a level lacks simply never match).
	"AggColSpec":  {"Key": true, "Fold": true},
	"JoinColSpec": {"LeftKey": true, "RightKey": true, "ResidualL": true, "ResidualR": true},
}

// kernelTypes are the named kernel types a conversion can bind a function to.
var kernelTypes = map[string]bool{
	"FilterKernel": true, "MapKernel": true, "KeyKernel": true,
	"AggKernel": true, "ProbeKernel": true,
}

// accessors are the ColBatch/ColSeg methods returning runtime-owned column
// slices. Rows is a field on ColBatch (caught by the path check) but a method
// on ColSeg.
var accessors = map[string]bool{"Rows": true, "Timestamps": true, "Int64s": true, "Float64s": true, "Strings": true}

// streamMethods are the ops.Stream methods a kernel must never call.
var streamMethods = map[string]bool{
	"Send": true, "SendRun": true, "SendGather": true, "Flush": true,
	"Recv": true, "RecvBatch": true, "CanRecv": true, "CloseSend": true, "Close": true,
}

var Analyzer = &analysis.Analyzer{
	Name: "kernelpurity",
	Doc: "flags columnar kernels that write shared state, perform stream I/O, mutate or retain their ColBatch's columns\n\n" +
		"Column slices are reused across runs and lanes; an impure kernel races,\n" +
		"observes garbage, or corrupts tuples shared by identity downstream.",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	pkg := pass.Pkg.Path()
	if pkg != opsPath && pkg != queryPath &&
		!analysisutil.Imports(pass.Pkg, opsPath) && !analysisutil.Imports(pass.Pkg, queryPath) {
		return nil, nil
	}
	c := &checker{pass: pass, decls: make(map[*types.Func]*ast.FuncDecl), seen: make(map[ast.Node]bool)}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if decl, ok := n.(*ast.FuncDecl); ok && decl.Body != nil {
				if fn, ok := pass.TypesInfo.Defs[decl.Name].(*types.Func); ok {
					c.decls[fn] = decl
				}
			}
			return true
		})
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				c.checkLiteral(n)
			case *ast.CallExpr:
				c.checkConversion(n)
			}
			return true
		})
	}
	return nil, nil
}

type checker struct {
	pass  *analysis.Pass
	decls map[*types.Func]*ast.FuncDecl
	seen  map[ast.Node]bool
}

// checkLiteral picks kernel-valued fields out of ColSpec/ColStage/ColKey/
// ColField composite literals.
func (c *checker) checkLiteral(lit *ast.CompositeLit) {
	tv, ok := c.pass.TypesInfo.Types[lit]
	if !ok {
		return
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return
	}
	declPkg := named.Obj().Pkg().Path()
	if declPkg != opsPath && declPkg != queryPath {
		return
	}
	fields, ok := kernelFields[named.Obj().Name()]
	if !ok {
		return
	}
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		name, ok := kv.Key.(*ast.Ident)
		if !ok || !fields[name.Name] {
			continue
		}
		c.checkKernelExpr(kv.Value)
	}
}

// checkConversion catches ops.FilterKernel(f)-style bindings.
func (c *checker) checkConversion(call *ast.CallExpr) {
	if len(call.Args) != 1 {
		return
	}
	tv, ok := c.pass.TypesInfo.Types[call.Fun]
	if !ok || !tv.IsType() {
		return
	}
	named, ok := tv.Type.(*types.Named)
	if !ok || named.Obj().Pkg() == nil ||
		named.Obj().Pkg().Path() != opsPath || !kernelTypes[named.Obj().Name()] {
		return
	}
	c.checkKernelExpr(call.Args[0])
}

// checkKernelExpr resolves a kernel-valued expression to its function body
// (a literal, or a function declared in this package) and analyzes it.
func (c *checker) checkKernelExpr(e ast.Expr) {
	switch e := ast.Unparen(e).(type) {
	case *ast.FuncLit:
		if !c.seen[e] {
			c.seen[e] = true
			c.checkKernel(e, e.Type, e.Body)
		}
	case *ast.Ident, *ast.SelectorExpr:
		fn := analysisutil.Callee(c.pass.TypesInfo, &ast.CallExpr{Fun: e})
		if fn == nil {
			return
		}
		if decl, ok := c.decls[fn]; ok && !c.seen[decl] {
			c.seen[decl] = true
			c.checkKernel(decl, decl.Type, decl.Body)
		}
	}
}

// checkKernel applies the purity checks to one kernel function.
func (c *checker) checkKernel(fnNode ast.Node, ftype *ast.FuncType, body *ast.BlockStmt) {
	info := c.pass.TypesInfo

	// The ColBatch or ColSeg parameter, if the kernel has one (extractors do
	// not; fold and probe kernels receive a window segment instead of a
	// batch, with identical ownership rules).
	var batch types.Object
	if ftype.Params != nil {
		for _, field := range ftype.Params.List {
			for _, name := range field.Names {
				obj := info.Defs[name]
				if obj != nil && (analysisutil.IsNamedType(obj.Type(), opsPath, "ColBatch") ||
					analysisutil.IsNamedType(obj.Type(), opsPath, "ColSeg")) {
					batch = obj
				}
			}
		}
	}

	// Pass 1: collect locals aliasing batch-owned slices (column accessor
	// results, or anything reached from the batch parameter).
	colAliases := make(map[types.Object]string) // -> description
	if batch != nil {
		ast.Inspect(body, func(n ast.Node) bool {
			assign, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, rhs := range assign.Rhs {
				if i >= len(assign.Lhs) {
					break
				}
				lhs, ok := ast.Unparen(assign.Lhs[i]).(*ast.Ident)
				if !ok {
					continue
				}
				obj := info.Defs[lhs]
				if obj == nil {
					obj = info.Uses[lhs]
				}
				if obj == nil {
					continue
				}
				if desc := c.batchOwned(rhs, batch, colAliases); desc != "" {
					colAliases[obj] = desc
				} else {
					delete(colAliases, obj) // reassigned to something else
				}
			}
			return true
		})
	}

	// Pass 2: the checks proper.
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			c.pass.Reportf(n.Pos(), "columnar kernel starts a goroutine: kernels run synchronously inside the operator loop over reused batch storage")
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				c.checkKernelWrite(fnNode, lhs, batch, colAliases)
			}
		case *ast.IncDecStmt:
			c.checkKernelWrite(fnNode, n.X, batch, colAliases)
		case *ast.CallExpr:
			fn := analysisutil.Callee(info, n)
			if fn != nil {
				if recv := analysisutil.Receiver(fn); recv != nil && recv.Obj().Pkg() != nil &&
					recv.Obj().Pkg().Path() == opsPath && recv.Obj().Name() == "Stream" && streamMethods[fn.Name()] {
					c.pass.Reportf(n.Pos(), "columnar kernel calls Stream.%s: kernels compute, operators communicate (stream I/O in a kernel defeats fusion and identity elision)", fn.Name())
				}
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if batch == nil {
					continue
				}
				if desc := c.batchOwned(r, batch, colAliases); desc != "" {
					c.pass.Reportf(r.Pos(), "columnar kernel returns %s: the backing array is reused on the next run — append the output into dst instead", desc)
				}
			}
		}
		return true
	})
}

// checkKernelWrite flags writes to non-local state, into the ColBatch, or
// into a batch-owned slice alias.
func (c *checker) checkKernelWrite(fnNode ast.Node, lhs ast.Expr, batch types.Object, colAliases map[types.Object]string) {
	root, path := analysisutil.Path(c.pass.TypesInfo, lhs)
	if root == nil {
		// Direct write through an accessor result: c.Int64s(f)[i] = v.
		if batch != nil {
			if desc := c.accessorWrite(lhs, batch); desc != "" {
				c.pass.Reportf(lhs.Pos(), "columnar kernel writes into %s: column slices are lazily-filled views over reused storage shared with later stages", desc)
			}
		}
		return
	}
	if root == batch && path != "" {
		c.pass.Reportf(lhs.Pos(), "columnar kernel mutates its ColBatch (%s%s): the Rows meta column and the lazy-fill bookkeeping are owned by the runtime", root.Name(), path)
		return
	}
	if desc, ok := colAliases[root]; ok && path != "" {
		c.pass.Reportf(lhs.Pos(), "columnar kernel writes into %s (via %s): column slices are lazily-filled views over reused storage shared with later stages", desc, root.Name())
		return
	}
	if root.Parent() == nil {
		return // a field path rooted elsewhere; fnPos check below needs a scoped var
	}
	if root.Pos() < fnNode.Pos() || root.Pos() > fnNode.End() {
		c.pass.Reportf(lhs.Pos(), "columnar kernel writes non-local state %s%s: kernels may run concurrently across shard lanes and must be pure", root.Name(), path)
	}
}

// batchOwned describes e if it evaluates to a batch-owned slice: a column
// accessor call on the batch, a path into the batch (c.Rows), or a tracked
// alias. Returns "" otherwise.
func (c *checker) batchOwned(e ast.Expr, batch types.Object, colAliases map[types.Object]string) string {
	e = ast.Unparen(e)
	if call, ok := e.(*ast.CallExpr); ok {
		if desc := c.accessorCall(call, batch); desc != "" {
			return desc
		}
		return ""
	}
	if root, path := analysisutil.Path(c.pass.TypesInfo, e); root != nil {
		if root == batch && path != "" {
			return "the batch-owned slice " + root.Name() + path
		}
		if desc, ok := colAliases[root]; ok {
			return desc
		}
	}
	return ""
}

// accessorCall describes call if it is a ColBatch or ColSeg column accessor
// on batch.
func (c *checker) accessorCall(call *ast.CallExpr, batch types.Object) string {
	fn := analysisutil.Callee(c.pass.TypesInfo, call)
	if fn == nil || !accessors[fn.Name()] {
		return ""
	}
	recv := analysisutil.Receiver(fn)
	if recv == nil || recv.Obj().Pkg() == nil || recv.Obj().Pkg().Path() != opsPath ||
		(recv.Obj().Name() != "ColBatch" && recv.Obj().Name() != "ColSeg") {
		return ""
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	if root, _ := analysisutil.Path(c.pass.TypesInfo, sel.X); root != batch {
		return ""
	}
	return "the column returned by " + fn.Name()
}

// accessorWrite descends an lvalue (index/selector chains) looking for a
// column accessor call at its base.
func (c *checker) accessorWrite(lhs ast.Expr, batch types.Object) string {
	for {
		switch e := ast.Unparen(lhs).(type) {
		case *ast.IndexExpr:
			lhs = e.X
		case *ast.SelectorExpr:
			lhs = e.X
		case *ast.StarExpr:
			lhs = e.X
		case *ast.CallExpr:
			return c.accessorCall(e, batch)
		default:
			return ""
		}
	}
}

// Package colkind type-checks the field indices columnar kernels pass to
// the typed column accessors against the ColSchema they are bound with.
//
// A ColSchema addresses columns by field index, and the accessors are
// kind-typed: Int64s(f) requires Fields[f].Kind == ColInt64, Float64s(f)
// ColFloat64, Strings(f) ColString. The runtime validates schemas (every
// field needs exactly one extractor matching its kind) but an accessor call
// with the wrong constant — reading field 1 as Int64s when it is declared
// ColFloat64, or indexing past the field list — only fails at run time, as
// an index-out-of-range panic inside an operator loop or, worse, as a
// silently wrong column when two fields of the same kind trade places.
//
// The analyzer resolves schema literals statically — package-level
// `var s = &ops.ColSchema{Fields: ...}` declarations and inline schema
// literals — records each field's declared kind, then follows every
// binding that pairs a kernel with a schema:
//
//   - ColSpec / ColStage: Filter, Map, Key kernels read Schema;
//   - ColKey: Kernel reads Schema;
//   - AggColSpec (ops and query levels): Key reads Schema (as a ColBatch),
//     Fold reads Schema (as a ColSeg of the group's window state);
//   - JoinColSpec: LeftKey reads Left, RightKey reads Right; the residual
//     probes read the *opposite* side's buffer — ResidualL's candidate
//     segment is the right window (Right), ResidualR's the left (Left).
//
// Inside each kernel it flags Int64s/Float64s/Strings calls on the batch or
// segment parameter whose field argument is a constant that is out of range
// or names a field of a different kind. The analysis under-approximates:
// schemas built imperatively, non-constant field arguments, and kernels that
// forward their parameter to helpers are out of scope — silence is not a
// proof, a diagnostic is a contradiction with the declared schema.
package colkind

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/types"

	"genealog/internal/lint/analysis"
	"genealog/internal/lint/analysisutil"
)

const (
	opsPath   = "genealog/internal/ops"
	queryPath = "genealog/internal/query"
)

// bindings maps a spec struct name to its kernel fields and the schema
// field each kernel reads. Field names are unique across the ops and query
// levels of the same spec, so one entry covers both.
var bindings = map[string]map[string]string{
	"ColSpec":    {"Filter": "Schema", "Map": "Schema"},
	"ColStage":   {"Filter": "Schema", "Map": "Schema"},
	"ColKey":     {"Kernel": "Schema"},
	"AggColSpec": {"Key": "Schema", "Fold": "Schema"},
	// Probes run against the opposite side's window state.
	"JoinColSpec": {"LeftKey": "Left", "RightKey": "Right", "ResidualL": "Right", "ResidualR": "Left"},
}

// accessorKind maps a typed accessor to the ColKind its column must declare.
var accessorKind = map[string]int64{"Int64s": 1, "Float64s": 2, "Strings": 3}

var kindName = map[int64]string{1: "ColInt64", 2: "ColFloat64", 3: "ColString"}

var Analyzer = &analysis.Analyzer{
	Name: "colkind",
	Doc: "flags typed column accessor calls whose constant field index is out of range or mismatches the bound ColSchema's declared kind\n\n" +
		"Int64s(f) requires Fields[f].Kind == ColInt64 (likewise Float64s/Strings);\n" +
		"a wrong constant panics inside the operator loop or reads the wrong column.",
	Run: run,
}

// field is one resolved schema field: its declared name and kind (0 when the
// literal leaves the kind unresolvable — such fields still count for range
// checks but skip the kind check).
type field struct {
	name string
	kind int64
}

func run(pass *analysis.Pass) (any, error) {
	pkg := pass.Pkg.Path()
	if pkg != opsPath && pkg != queryPath &&
		!analysisutil.Imports(pass.Pkg, opsPath) && !analysisutil.Imports(pass.Pkg, queryPath) {
		return nil, nil
	}
	c := &checker{
		pass:       pass,
		schemaVars: make(map[types.Object][]field),
		schemaName: make(map[types.Object]string),
		decls:      make(map[*types.Func]*ast.FuncDecl),
		seen:       make(map[seenKey]bool),
	}

	// Pass 1: function declarations and schema-valued vars. A var is tracked
	// only while its sole binding is a schema literal in its declaration;
	// any later assignment drops it (the analysis must under-approximate).
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					if fn, ok := pass.TypesInfo.Defs[n.Name].(*types.Func); ok {
						c.decls[fn] = n
					}
				}
			case *ast.ValueSpec:
				for i, name := range n.Names {
					if i >= len(n.Values) {
						break
					}
					if fields, ok := c.schemaLit(n.Values[i]); ok {
						if obj := pass.TypesInfo.Defs[name]; obj != nil {
							c.schemaVars[obj] = fields
							c.schemaName[obj] = name.Name
						}
					}
				}
			}
			return true
		})
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			assign, ok := n.(*ast.AssignStmt)
			if !ok || assign.Tok.String() == ":=" {
				return true
			}
			for _, lhs := range assign.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					if obj := pass.TypesInfo.Uses[id]; obj != nil {
						delete(c.schemaVars, obj)
					}
				}
			}
			return true
		})
	}

	// Pass 2: kernel↔schema bindings.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.CompositeLit); ok {
				c.checkLiteral(lit)
			}
			return true
		})
	}
	return nil, nil
}

type seenKey struct {
	fn      ast.Node
	profile string
}

type checker struct {
	pass       *analysis.Pass
	schemaVars map[types.Object][]field
	schemaName map[types.Object]string
	decls      map[*types.Func]*ast.FuncDecl
	// seen dedups (kernel, schema kind profile) pairs: the same kernel bound
	// twice against kind-identical schemas (a symmetric join residual, say)
	// reports once.
	seen map[seenKey]bool
}

// schemaLit resolves e if it is a ColSchema composite literal (optionally
// behind &) with a literal Fields slice.
func (c *checker) schemaLit(e ast.Expr) ([]field, bool) {
	e = ast.Unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op.String() == "&" {
		e = ast.Unparen(u.X)
	}
	lit, ok := e.(*ast.CompositeLit)
	if !ok || !c.isNamed(lit, "ColSchema") {
		return nil, false
	}
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if key, ok := kv.Key.(*ast.Ident); !ok || key.Name != "Fields" {
			continue
		}
		fieldsLit, ok := ast.Unparen(kv.Value).(*ast.CompositeLit)
		if !ok {
			return nil, false // imperative field list: unresolvable
		}
		fields := make([]field, 0, len(fieldsLit.Elts))
		for _, fe := range fieldsLit.Elts {
			fields = append(fields, c.fieldLit(fe))
		}
		return fields, true
	}
	return nil, true // no Fields entry: zero fields declared
}

// fieldLit resolves one ColField literal's declared name and kind; either
// degrades to unknown when not statically evident.
func (c *checker) fieldLit(e ast.Expr) field {
	lit, ok := ast.Unparen(e).(*ast.CompositeLit)
	if !ok {
		return field{}
	}
	var f field
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		switch key.Name {
		case "Name":
			if tv, ok := c.pass.TypesInfo.Types[kv.Value]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
				f.name = constant.StringVal(tv.Value)
			}
		case "Kind":
			if tv, ok := c.pass.TypesInfo.Types[kv.Value]; ok && tv.Value != nil {
				if k, ok := constant.Int64Val(tv.Value); ok {
					f.kind = k
				}
			}
		}
	}
	return f
}

// isNamed reports whether lit's type is the ops- or query-level named type.
func (c *checker) isNamed(lit *ast.CompositeLit, name string) bool {
	tv, ok := c.pass.TypesInfo.Types[lit]
	if !ok {
		return false
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Name() != name {
		return false
	}
	p := named.Obj().Pkg().Path()
	return p == opsPath || p == queryPath
}

// checkLiteral pairs the kernels of a spec literal with the schemas its
// binding rules name and checks each resolvable pair.
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
	p := named.Obj().Pkg().Path()
	if p != opsPath && p != queryPath {
		return
	}
	rules, ok := bindings[named.Obj().Name()]
	if !ok {
		return
	}
	elts := make(map[string]ast.Expr)
	for _, elt := range lit.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if key, ok := kv.Key.(*ast.Ident); ok {
				elts[key.Name] = kv.Value
			}
		}
	}
	for kernelField, schemaField := range rules {
		kernel, ok := elts[kernelField]
		if !ok {
			continue
		}
		schema, ok := elts[schemaField]
		if !ok {
			continue
		}
		fields, name, ok := c.resolveSchema(schema)
		if !ok {
			continue
		}
		c.checkKernel(kernel, fields, name)
	}
}

// resolveSchema resolves a schema-valued expression: an identifier (possibly
// package-qualified within this package's files) bound to a tracked schema
// var, or an inline schema literal.
func (c *checker) resolveSchema(e ast.Expr) ([]field, string, bool) {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.Ident:
		if obj := c.pass.TypesInfo.Uses[e]; obj != nil {
			if fields, ok := c.schemaVars[obj]; ok {
				return fields, c.schemaName[obj], true
			}
		}
	default:
		if fields, ok := c.schemaLit(e); ok {
			return fields, "the inline schema", true
		}
	}
	return nil, "", false
}

// checkKernel resolves the kernel to its body and flags accessor calls on
// its ColBatch/ColSeg parameter inconsistent with the schema's fields.
func (c *checker) checkKernel(e ast.Expr, fields []field, schemaName string) {
	var ftype *ast.FuncType
	var body *ast.BlockStmt
	var node ast.Node
	switch e := ast.Unparen(e).(type) {
	case *ast.FuncLit:
		ftype, body, node = e.Type, e.Body, e
	case *ast.Ident, *ast.SelectorExpr:
		fn := analysisutil.Callee(c.pass.TypesInfo, &ast.CallExpr{Fun: e})
		if fn == nil {
			return
		}
		decl, ok := c.decls[fn]
		if !ok {
			return
		}
		ftype, body, node = decl.Type, decl.Body, decl
	default:
		return
	}
	profile := ""
	for _, f := range fields {
		profile += fmt.Sprintf("%d,", f.kind)
	}
	key := seenKey{fn: node, profile: profile}
	if c.seen[key] {
		return
	}
	c.seen[key] = true

	var param types.Object
	if ftype.Params != nil {
		for _, pf := range ftype.Params.List {
			for _, name := range pf.Names {
				obj := c.pass.TypesInfo.Defs[name]
				if obj != nil && (analysisutil.IsNamedType(obj.Type(), opsPath, "ColBatch") ||
					analysisutil.IsNamedType(obj.Type(), opsPath, "ColSeg")) {
					param = obj
				}
			}
		}
	}
	if param == nil {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return true
		}
		fn := analysisutil.Callee(c.pass.TypesInfo, call)
		if fn == nil {
			return true
		}
		want, ok := accessorKind[fn.Name()]
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if root, _ := analysisutil.Path(c.pass.TypesInfo, sel.X); root != param {
			return true
		}
		tv, ok := c.pass.TypesInfo.Types[call.Args[0]]
		if !ok || tv.Value == nil {
			return true // non-constant field index: out of scope
		}
		idx, ok := constant.Int64Val(tv.Value)
		if !ok {
			return true
		}
		if idx < 0 || idx >= int64(len(fields)) {
			c.pass.Reportf(call.Pos(), "kernel reads %s(%d) but %s declares only %d fields",
				fn.Name(), idx, schemaDesc(schemaName), len(fields))
			return true
		}
		f := fields[idx]
		if f.kind != 0 && f.kind != want {
			c.pass.Reportf(call.Pos(), "kernel reads %s(%d) but %s field %q is %s (want %s)",
				fn.Name(), idx, schemaDesc(schemaName), f.name, kindName[f.kind], kindName[want])
		}
		return true
	})
}

func schemaDesc(name string) string {
	if name == "" || name == "the inline schema" {
		return "the bound schema"
	}
	return "schema " + name
}

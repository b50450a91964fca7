package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// MergePurityAnalyzer builds the reducer-purity check. The sharded
// campaign runner's bit-identity argument (PR 6) rests on every reducer —
// the merge operations folding partial aggregates back together — being a
// pure function of its two operands, insensitive to the order shards and
// chunks arrive in. This analyzer finds the reducers and forbids the four
// ways order sensitivity sneaks in:
//
//   - map iteration: range order would leak into the merged result;
//   - wall clocks and package-level math/rand: ambient nondeterminism;
//   - reads of package-level mutable state: a reducer observing anything
//     but its operands can produce different bits for different arrival
//     orders (error sentinels are exempt — they are de-facto constants);
//   - direct floating-point accumulation (`+=`/`-=` on floats): float
//     addition is not associative, so sums must flow through the
//     stats.Forest fixed-shape combine schedule instead. The stats
//     package itself — the blessed implementation of that schedule — is
//     exempt from this one rule.
//
// Reducers are discovered structurally and closed transitively over
// same-package calls: functions and methods whose name starts with
// "merge"/"Merge", function values passed to shard.NewMerger or to any
// parameter named "merge", and function literals bound to a composite-
// literal field named Merge (the experiment.CampaignShard form). Calls
// through function-valued variables are not followed; keep reducer
// plumbing as named functions or literals at the call site.
func MergePurityAnalyzer(match func(importPath string) bool) *Analyzer {
	return &Analyzer{
		Name: CheckMergePurity,
		Doc:  "reducers reachable from shard.Merger/stats.Forest/metrics Merge must be order-insensitive",
		Run: func(p *Package) []Diagnostic {
			if match != nil && !match(p.ImportPath) {
				return nil
			}
			bodies := reducerBodies(p)
			var diags []Diagnostic
			for _, rb := range bodies {
				diags = append(diags, checkReducerBody(p, rb)...)
			}
			return diags
		},
	}
}

// reducerBody is one function body established as (part of) a reducer.
type reducerBody struct {
	name string
	body *ast.BlockStmt
}

// reducerBodies finds the reducer roots in a package and closes them over
// same-package calls.
func reducerBodies(p *Package) []reducerBody {
	// Index the package's function declarations by their object, for call
	// resolution.
	declOf := map[*types.Func]*ast.FuncDecl{}
	paramNames := map[*types.Func][]string{}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := p.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			declOf[fn] = fd
			var names []string
			if fd.Type.Params != nil {
				for _, field := range fd.Type.Params.List {
					if len(field.Names) == 0 {
						names = append(names, "")
						continue
					}
					for _, id := range field.Names {
						names = append(names, id.Name)
					}
				}
			}
			paramNames[fn] = names
		}
	}

	seen := map[*ast.BlockStmt]bool{}
	var queue []reducerBody
	add := func(name string, body *ast.BlockStmt) {
		if body == nil || seen[body] {
			return
		}
		seen[body] = true
		queue = append(queue, reducerBody{name: name, body: body})
	}
	addCallee := func(e ast.Expr) {
		var obj types.Object
		switch e := ast.Unparen(e).(type) {
		case *ast.Ident:
			obj = p.Info.Uses[e]
		case *ast.SelectorExpr:
			obj = p.Info.Uses[e.Sel]
		case *ast.FuncLit:
			add("func literal", e.Body)
			return
		}
		if fn, ok := obj.(*types.Func); ok {
			if fd := declOf[fn.Origin()]; fd != nil {
				add(fn.Name(), fd.Body)
			}
		}
	}

	for _, f := range p.Files {
		// Name-prefix roots: Merge methods, merge helpers.
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if strings.HasPrefix(strings.ToLower(fd.Name.Name), "merge") {
				add(fd.Name.Name, fd.Body)
			}
		}
		// Structural roots: args to NewMerger / merge-named parameters, and
		// composite-literal Merge fields.
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				fn := calleeFunc(p, n)
				if fn == nil {
					return true
				}
				if fn.Name() == "NewMerger" {
					for _, arg := range n.Args {
						if _, ok := p.Info.TypeOf(arg).Underlying().(*types.Signature); ok {
							addCallee(arg)
						}
					}
					return true
				}
				if names := paramNames[fn.Origin()]; names != nil {
					for i, arg := range n.Args {
						if i < len(names) && names[i] == "merge" {
							addCallee(arg)
						}
					}
				}
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok && id.Name == "Merge" {
					if t := p.Info.TypeOf(n.Value); t != nil {
						if _, ok := t.Underlying().(*types.Signature); ok {
							addCallee(n.Value)
						}
					}
				}
			}
			return true
		})
	}

	// Transitive closure over same-package calls.
	for i := 0; i < len(queue); i++ {
		ast.Inspect(queue[i].body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if fn := calleeFunc(p, call); fn != nil && fn.Pkg() == p.Types {
					if fd := declOf[fn.Origin()]; fd != nil {
						add(fn.Name(), fd.Body)
					}
				}
			}
			return true
		})
	}
	return queue
}

// statsPackage reports whether the package is the repository's stats
// package — the home of the Forest fixed-shape combine schedule, whose
// Chan-et-al float updates ARE the blessed accumulation.
func statsPackage(p *Package) bool {
	return p.ImportPath == "internal/stats" || strings.HasSuffix(p.ImportPath, "/internal/stats")
}

// checkReducerBody applies the purity rules to one reducer body.
func checkReducerBody(p *Package, rb reducerBody) []Diagnostic {
	var diags []Diagnostic
	blessFloat := statsPackage(p)
	ast.Inspect(rb.body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if t := p.Info.TypeOf(n.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					diags = append(diags, p.diag(CheckMergePurity, n.Pos(),
						"reducer %s iterates a map; iteration order leaks into the merged result — iterate a sorted key slice instead", rb.name))
				}
			}
		case *ast.CallExpr:
			if msg, ok := impureReducerCall(p, n); ok {
				diags = append(diags, p.diag(CheckMergePurity, n.Pos(),
					"reducer %s %s", rb.name, msg))
			}
		case *ast.Ident:
			if v, ok := p.Info.Uses[n].(*types.Var); ok && packageLevelMutable(v) {
				diags = append(diags, p.diag(CheckMergePurity, n.Pos(),
					"reducer %s touches package-level mutable state %s; a reducer must be a pure function of its operands", rb.name, v.Name()))
			}
		case *ast.AssignStmt:
			if blessFloat {
				break
			}
			if n.Tok == token.ADD_ASSIGN || n.Tok == token.SUB_ASSIGN {
				for _, lhs := range n.Lhs {
					if t := p.Info.TypeOf(lhs); t != nil && isFloat(t) {
						diags = append(diags, p.diag(CheckMergePurity, n.Pos(),
							"reducer %s accumulates floats directly; float addition is not associative across merge orders — route the stream through stats.Forest", rb.name))
					}
				}
			}
		}
		return true
	})
	return diags
}

// impureReducerCall classifies calls that smuggle ambient state into a
// reducer: wall-clock reads and package-level math/rand draws.
func impureReducerCall(p *Package, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(p, call)
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	switch fn.Pkg().Path() {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			return "reads the wall clock (time." + fn.Name() + "); merged bits must not depend on when a frame arrived", true
		}
	case "math/rand", "math/rand/v2":
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() != nil {
			break
		}
		switch fn.Name() {
		case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
		default:
			return "draws from the global rand source (rand." + fn.Name() + ")", true
		}
	}
	return "", false
}

// packageLevelMutable reports whether the variable is package-level
// mutable state a reducer must not observe. Error-typed variables are
// exempt: sentinel errors are de-facto constants.
func packageLevelMutable(v *types.Var) bool {
	if v.IsField() || v.Pkg() == nil {
		return false
	}
	if v.Parent() != v.Pkg().Scope() {
		return false
	}
	if isErrorType(v.Type()) {
		return false
	}
	return true
}

var errType = types.Universe.Lookup("error").Type()

// isErrorType reports whether t is the predeclared error interface.
func isErrorType(t types.Type) bool { return types.Identical(t, errType) }

func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

package lint

import (
	"go/ast"
	"go/types"
)

// HeldFrameAnalyzer builds the held-frame protocol check. The lockstep
// tick engine's batched guard prediction parks a rig's command frame on the
// interposition chain (interpose.Hold) while its model advance joins a
// fused sweep; the frame reaches the board only when the driver resumes
// the chain. The protocol has exactly one safe shape, and this analyzer
// makes departures from it build breaks:
//
//   - a type that opts into deferral (SetDeferredPredict) must implement
//     the full seam: PredictPending, PredictInto, AbsorbPrediction;
//   - a method returning interpose.Hold must belong to a type carrying
//     that seam — a wrapper that parks frames it cannot finish deadlocks
//     the tick;
//   - flow rules over each driver function's control-flow graph:
//     every PredictInto must have an AbsorbPrediction reachable after it,
//     and a ResumeHeld/ResumeWrite after that; after AbsorbPrediction the
//     resume must happen on ALL paths to a normal return (error bail-outs
//     are exempt — an aborted tick tears the session down); no chain
//     Write while a frame may still be held; no second park before the
//     previous frame was resumed.
//
// The protocol ops are recognised structurally (method names plus the
// Hold constant's Verdict type), so fixture packages can model the seam
// without importing the real interpose package.
func HeldFrameAnalyzer(match func(importPath string) bool) *Analyzer {
	return &Analyzer{
		Name: CheckHeldFrame,
		Doc:  "enforce the interpose.Hold held-frame protocol: parked predictions are absorbed and resumed on all paths",
		Run: func(p *Package) []Diagnostic {
			if match != nil && !match(p.ImportPath) {
				return nil
			}
			var diags []Diagnostic
			diags = append(diags, checkDeferredSeams(p)...)
			for _, f := range p.Files {
				for _, decl := range f.Decls {
					fd, ok := decl.(*ast.FuncDecl)
					if !ok || fd.Body == nil {
						continue
					}
					diags = append(diags, checkHoldReturns(p, fd)...)
					diags = append(diags, checkHeldFlow(p, fd.Body)...)
					// Function literals run on their own schedule; analyze
					// each body as an independent driver function.
					ast.Inspect(fd.Body, func(n ast.Node) bool {
						if lit, ok := n.(*ast.FuncLit); ok {
							diags = append(diags, checkHeldFlow(p, lit.Body)...)
						}
						return true
					})
				}
			}
			return diags
		},
	}
}

// The deferred-predict seam: a holder must expose all of these.
var seamMethods = []string{"PredictPending", "PredictInto", "AbsorbPrediction"}

// checkDeferredSeams flags types that opt into deferred prediction without
// implementing the methods the lockstep engine drives the seam with.
func checkDeferredSeams(p *Package) []Diagnostic {
	var diags []Diagnostic
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Name.Name != "SetDeferredPredict" {
				continue
			}
			named := recvNamed(p, fd)
			if named == nil {
				continue
			}
			for _, m := range seamMethods {
				if !hasMethod(named, m) {
					diags = append(diags, p.diag(CheckHeldFrame, fd.Pos(),
						"%s has SetDeferredPredict but no %s; the deferred-predict seam needs PredictPending, PredictInto, and AbsorbPrediction",
						named.Obj().Name(), m))
				}
			}
		}
	}
	return diags
}

// checkHoldReturns flags functions that can return the Hold verdict
// without belonging to a type that implements the deferred-predict seam:
// a held frame only ever resumes if the holder exposes the batch seam the
// lockstep engine drives.
func checkHoldReturns(p *Package, fd *ast.FuncDecl) []Diagnostic {
	var diags []Diagnostic
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			if !isHoldConst(p, res) {
				continue
			}
			named := recvNamed(p, fd)
			if named == nil {
				diags = append(diags, p.diag(CheckHeldFrame, res.Pos(),
					"%s returns Hold but is not a method; only a wrapper implementing the deferred-predict seam may park frames", fd.Name.Name))
				continue
			}
			for _, m := range seamMethods {
				if !hasMethod(named, m) {
					diags = append(diags, p.diag(CheckHeldFrame, res.Pos(),
						"%s.%s returns Hold but %s does not implement %s; a holder without the full deferred-predict seam parks frames nobody can resume",
						named.Obj().Name(), fd.Name.Name, named.Obj().Name(), m))
				}
			}
		}
		return true
	})
	return diags
}

// isHoldConst reports whether the expression resolves to a constant named
// Hold whose type is named Verdict (the interpose hold verdict, or a
// fixture's structural equivalent).
func isHoldConst(p *Package, e ast.Expr) bool {
	var id *ast.Ident
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return false
	}
	c, ok := p.Info.Uses[id].(*types.Const)
	if !ok || c.Name() != "Hold" {
		return false
	}
	named, ok := c.Type().(*types.Named)
	return ok && named.Obj().Name() == "Verdict"
}

// recvNamed resolves a method declaration's receiver to its named type.
func recvNamed(p *Package, fd *ast.FuncDecl) *types.Named {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return nil
	}
	t := p.Info.TypeOf(fd.Recv.List[0].Type)
	return derefNamed(t)
}

func derefNamed(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// hasMethod reports whether the named type (or its underlying interface)
// declares a method with the given name.
func hasMethod(named *types.Named, name string) bool {
	for i := 0; i < named.NumMethods(); i++ {
		if named.Method(i).Name() == name {
			return true
		}
	}
	if iface, ok := named.Underlying().(*types.Interface); ok {
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == name {
				return true
			}
		}
	}
	return false
}

// Held-frame protocol events.
const (
	hfPark = iota
	hfAbsorb
	hfResume
	hfChainWrite
)

type hfOcc struct {
	kind int
	call *ast.CallExpr
}

// hfEvents classifies the protocol calls owned by each CFG node, in
// execution order.
func hfEvents(p *Package, g *cfg) map[*cfgNode][]hfOcc {
	events := map[*cfgNode][]hfOcc{}
	for _, n := range g.nodes {
		n.ownedCalls(func(call *ast.CallExpr) {
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return
			}
			switch sel.Sel.Name {
			case "PredictInto":
				events[n] = append(events[n], hfOcc{hfPark, call})
			case "AbsorbPrediction":
				events[n] = append(events[n], hfOcc{hfAbsorb, call})
			case "ResumeHeld", "ResumeWrite":
				events[n] = append(events[n], hfOcc{hfResume, call})
			case "Write":
				// Only writes on something that can hold frames (its type
				// has ResumeHeld) are chain writes.
				if named := derefNamed(p.Info.TypeOf(sel.X)); named != nil && hasMethod(named, "ResumeHeld") {
					events[n] = append(events[n], hfOcc{hfChainWrite, call})
				}
			}
		})
	}
	return events
}

// hfSearch walks the CFG forward from just after the fromIdx-th event of
// node from. It reports the first occurrence matching match; traversal
// stops along a path at any occurrence matching blocked. When wantExit is
// set, reaching the function's normal exit counts as a hit (returned as a
// nil occurrence with found=true). The error exit never counts: error
// bail-outs abandon the tick.
func hfSearch(g *cfg, events map[*cfgNode][]hfOcc, from *cfgNode, fromIdx int,
	match func(hfOcc) bool, blocked func(hfOcc) bool, wantExit bool) (*hfOcc, bool) {

	type frame struct {
		n   *cfgNode
		idx int
	}
	visited := map[*cfgNode]bool{}
	stack := []frame{{from, fromIdx}}
	for len(stack) > 0 {
		fr := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if fr.idx == 0 {
			if visited[fr.n] {
				continue
			}
			visited[fr.n] = true
		}
		stopped := false
		occs := events[fr.n]
		for i := fr.idx; i < len(occs); i++ {
			if match != nil && match(occs[i]) {
				return &occs[i], true
			}
			if blocked != nil && blocked(occs[i]) {
				stopped = true
				break
			}
		}
		if stopped {
			continue
		}
		if fr.n.exit && wantExit {
			return nil, true
		}
		if fr.n.errExit {
			continue
		}
		for _, s := range fr.n.succs {
			stack = append(stack, frame{s, 0})
		}
	}
	return nil, false
}

// checkHeldFlow applies the park/absorb/resume flow rules to one function
// body.
func checkHeldFlow(p *Package, body *ast.BlockStmt) []Diagnostic {
	g := buildCFG(p, body)
	events := hfEvents(p, g)
	if len(events) == 0 {
		return nil
	}
	var diags []Diagnostic
	isKind := func(k int) func(hfOcc) bool {
		return func(o hfOcc) bool { return o.kind == k }
	}
	for _, n := range g.nodes {
		for i, occ := range events[n] {
			switch occ.kind {
			case hfPark:
				if _, ok := hfSearch(g, events, n, i+1, isKind(hfAbsorb), nil, false); !ok {
					diags = append(diags, p.diag(CheckHeldFrame, occ.call.Pos(),
						"prediction parked here (PredictInto) is never absorbed: no AbsorbPrediction reachable on any subsequent path"))
				} else if _, ok := hfSearch(g, events, n, i+1, isKind(hfResume), nil, false); !ok {
					diags = append(diags, p.diag(CheckHeldFrame, occ.call.Pos(),
						"held frame is never resumed: no ResumeHeld/ResumeWrite reachable after this PredictInto"))
				}
				if w, ok := hfSearch(g, events, n, i+1, isKind(hfChainWrite), isKind(hfResume), false); ok {
					diags = append(diags, p.diag(CheckHeldFrame, w.call.Pos(),
						"write on a chain that may still hold a parked frame; resume the held write first (Chain.Write returns ErrHeldFrame at runtime)"))
				}
				self := occ.call
				second, ok := hfSearch(g, events, n, i+1,
					func(o hfOcc) bool { return o.kind == hfPark && o.call != self },
					isKind(hfResume), false)
				if ok {
					diags = append(diags, p.diag(CheckHeldFrame, second.call.Pos(),
						"second prediction parked before the previous held frame was resumed (double hold degrades to a dropped frame)"))
				}
			case hfAbsorb:
				if _, ok := hfSearch(g, events, n, i+1, nil, isKind(hfResume), true); ok {
					diags = append(diags, p.diag(CheckHeldFrame, occ.call.Pos(),
						"held write is not resumed on all paths: control can reach a normal return after AbsorbPrediction without ResumeHeld/ResumeWrite"))
				}
			}
		}
	}
	return diags
}

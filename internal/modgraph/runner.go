package modgraph

import (
	"fmt"

	"localalias/internal/ast"
	"localalias/internal/core"
	"localalias/internal/effects"
	"localalias/internal/obs"
	"localalias/internal/qual"
	"localalias/internal/types"
)

// runner executes the bottom-up pass: Analyze calls analyze on one
// module at a time in topological order, so each runs after all its
// (acyclic, present) dependencies. The per-module work is the standard
// core pipeline plus summary export.
type runner struct {
	mods map[string]*parsed
	opts Options
	res  *Result
	// imported names the modules another module of the program
	// imports: only their package summaries have a reader.
	imported map[string]bool
}

// depAPI returns the published API of dependency d, or nil when d is
// missing, failed, or summaries are disabled.
func (r *runner) depAPI(d string) *core.PackageAPI {
	if mr := r.res.Modules[d]; mr != nil && mr.Locking != nil {
		return mr.Locking.API
	}
	return nil
}

// depSigs returns the exported type surface of dependency d: the
// analyzed module's checked exports when available, else a parse-level
// extraction (the havoc fallback for failed deps and cycle members).
// Returns nil when d is not among the program's modules.
func (r *runner) depSigs(d string) *types.PkgSig {
	p := r.mods[d]
	if p == nil {
		return nil
	}
	mr := r.res.Modules[d]
	if mr != nil && !mr.Failed() && mr.Module != nil && mr.Module.TInfo != nil {
		return mr.Module.TInfo.Exports(d)
	}
	return sigsFromParse(d, p.mod.Prog)
}

// analyze runs one module with its dependencies' summaries in scope
// and publishes the result.
func (r *runner) analyze(name string) {
	p := r.mods[name]
	mr := &ModuleResult{Name: name, Deps: p.deps, Module: p.mod}

	// Per-module span, parented explicitly under the request's
	// analyze span rather than the trace's default-parent stack. A
	// deadline abort unwinds through here with no result: "failed".
	spans, parent := obs.SpanFromContext(r.opts.Ctx)
	span := spans.StartChild(parent, "module:"+name, "modgraph")
	defer func() {
		outcome := "analyzed"
		if mr.Locking == nil {
			outcome = "failed"
		}
		span.End("module", name, "deps", fmt.Sprintf("%d", len(p.deps)), "outcome", outcome)
	}()

	mr.Locking, mr.Err = r.step(p)
	r.res.Modules[name] = mr
}

// step is a single-module request's step over the tree Analyze
// parsed: type check against the dependencies' exports, then the
// three analysis modes with their summaries applied.
func (r *runner) step(p *parsed) (*core.LockingResult, error) {
	m := p.mod
	if m.Diags.HasErrors() {
		// Lexical or syntax errors from the parse in Analyze.
		return nil, fmt.Errorf("%s: %w", m.Name, m.Diags.Err())
	}

	// Build the import environment from the (sorted) dependency list.
	sigs := make(types.ImportSigs)
	effs := make(map[string][]effects.Mask)
	var trans [core.NumVariants]qual.Transfers
	for _, d := range p.deps {
		// An unresolved dependency gets no entry: typecheck reports it.
		if ps := r.depSigs(d); ps != nil {
			sigs[d] = ps
		}
		// In havoc mode no module exports an API, so none applies.
		if api := r.depAPI(d); api != nil {
			for fn, masks := range api.Effects {
				effs[d+"."+fn] = masks
			}
			for v := 0; v < core.NumVariants; v++ {
				for fn, pts := range api.Transfers[v] {
					if trans[v] == nil {
						trans[v] = make(qual.Transfers)
					}
					trans[v][d+"."+fn] = pts
				}
			}
		}
	}

	if err := m.Check(sigs, r.opts.Phases); err != nil {
		return nil, err
	}
	lr, err := m.AnalyzeLockingCtx(r.opts.Ctx, core.LockingOptions{
		ImportEffects:   effs,
		ImportTransfers: trans,
		ExportAPI:       !r.opts.Havoc && r.imported[m.Name],
	}, r.opts.Phases)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", m.Name, err)
	}
	return lr, nil
}

// sigsFromParse extracts the exportable function surface of a module
// from its parse tree alone, without type checking: enough for
// importers of a failed module (cycle member, type error) to resolve
// calls into it and havoc their effects instead of failing
// themselves. Portable types mention no module-local struct names, so
// parse-level resolution agrees with the checker's on every function
// it admits.
func sigsFromParse(name string, prog *ast.Program) *types.PkgSig {
	ps := &types.PkgSig{Name: name, Funs: make(map[string]*types.FunSig)}
	for _, f := range prog.Funs {
		sig := &types.FunSig{Decl: f, Name: f.Name}
		ok := true
		for _, prm := range f.Params {
			t := portableType(prm.Type)
			if t == nil {
				ok = false
				break
			}
			sig.Params = append(sig.Params, t)
		}
		if !ok {
			continue
		}
		if sig.Result = portableType(f.Result); sig.Result == nil {
			continue
		}
		if _, dup := ps.Funs[f.Name]; !dup {
			ps.Funs[f.Name] = sig
		}
	}
	return ps
}

// portableType resolves a parse-level type expression to a checked
// type if it is portable (prim/ref/array only); nil result means
// non-portable. A nil expression is the implicit unit result.
func portableType(te ast.TypeExpr) types.Type {
	switch te := te.(type) {
	case nil:
		return &types.Prim{Kind: ast.PrimUnit}
	case *ast.PrimType:
		return &types.Prim{Kind: te.Kind}
	case *ast.RefType:
		elem := portableType(te.Elem)
		if elem == nil {
			return nil
		}
		return &types.Ref{Elem: elem}
	case *ast.ArrayType:
		elem := portableType(te.Elem)
		if elem == nil {
			return nil
		}
		return &types.Array{Elem: elem, Size: te.Size}
	default: // *ast.NamedType
		return nil
	}
}

// Package effects defines the effect constraint language of the paper
// (Sections 4–6): effect atoms and the three constraint forms
// produced by alias-and-effect inference —
//
//	L ⊆ ε    inclusion, in the normal form of Figure 4b:
//	         {a} ⊆ ε, ε₁ ⊆ ε₂ or ε₁ ∩ ε₂ ⊆ ε
//	ρ ∉ ε    disinclusion of a location from an effect variable
//	cond     conditional constraints (Sections 5 and 6), used by
//	         restrict and confine inference
//
// Constraints are born normal: inference states an effect union as
// one inclusion per operand (AddAtom, AddVarIncl), and the only
// intersection it generates, (Down)'s, has variable operands
// (AddInter). So Figure 4b's rewriting has nothing to do and no pass
// runs between inference and the solver.
//
// Type equality constraints (Figure 4a) are solved eagerly during
// inference by unification on located types; the location equalities
// they imply arrive here through the shared locs.Store.
//
// Effects are sets of atoms. The paper's basic system (Section 3)
// uses plain location atoms {ρ}; the refined system for confine
// (Section 6.1) splits effects into read(ρ), write(ρ) and alloc(ρ).
// We use the refined atoms throughout and give the basic system's
// operations their obvious any-kind meaning, e.g. ρ ∉ L holds when no
// atom of any kind over ρ is in L.
//
// Intersection: the only intersections the syntax-directed system
// generates come from (Down), which replaces an effect L by
// L ∩ locs(Γ, τ) — "drop effects on locations no longer in use". We
// therefore give L₁ ∩ L₂ the kind-respecting reading "atoms of L₁
// whose location occurs (with any kind) in L₂". On the plain location
// sets of the paper's Figures 4 and 5 this coincides exactly with set
// intersection; on mixed sets it avoids polluting effect sets with
// the bare location atoms of locs(Γ, τ).
package effects

import (
	"fmt"
	"strconv"

	"localalias/internal/locs"
	"localalias/internal/source"
)

// Kind classifies an effect atom.
type Kind uint8

// The atom kinds. LocAtom is membership of a location in a location
// set (the locs(τ)/locs(Γ) sets); Read/Write/Alloc are the effect
// kinds of Section 6.1.
const (
	LocAtom Kind = iota
	Read
	Write
	Alloc
)

func (k Kind) String() string {
	switch k {
	case LocAtom:
		return "loc"
	case Read:
		return "read"
	case Write:
		return "write"
	case Alloc:
		return "alloc"
	default:
		return fmt.Sprintf("kind(%d)", k)
	}
}

// Mask is a set of effect kinds. Cross-module effect signatures use
// one Mask per formal parameter: the read/write/alloc kinds the
// callee's solved latent effect contains on locations reachable from
// that formal, rebased to the caller's argument.
type Mask uint8

// Bit returns the mask bit for k.
func (k Kind) Bit() Mask { return Mask(1) << k }

// Has reports whether k is in the mask.
func (m Mask) Has(k Kind) bool { return m&k.Bit() != 0 }

// HavocMask is the worst-case signature: read, write and alloc.
const HavocMask = Mask(1)<<Read | Mask(1)<<Write | Mask(1)<<Alloc

func (m Mask) String() string {
	s := ""
	for _, k := range [...]Kind{Read, Write, Alloc} {
		if m.Has(k) {
			if s != "" {
				s += "+"
			}
			s += k.String()
		}
	}
	if s == "" {
		return "pure"
	}
	return s
}

// Atom is one effect: kind applied to an abstract location. Atoms are
// stored canonicalized (Loc is a representative at insertion time);
// compare via the solver, which re-canonicalizes after unifications.
type Atom struct {
	Kind Kind
	Loc  locs.Loc
}

func (a Atom) String() string { return fmt.Sprintf("%s(ρ%d)", a.Kind, a.Loc) }

// Var is an effect-set variable (the ε and π of the paper), an index
// into its System.
type Var int32

// NoVar is the absent variable.
const NoVar Var = -1

// ---------------------------------------------------------------------
// Constraints

// NotIn is the disinclusion check ρ ∉ ε. Site and What carry
// diagnostic context (which restrict/confine and which side
// condition generated the check).
type NotIn struct {
	Loc  locs.Loc
	V    Var
	Site source.Span
	What Reason
}

// KindNotIn is the check that no atom of the given kind occurs in V.
// The confine checking rule uses it for "e₁ has no write/alloc
// effects" (Section 6.1).
type KindNotIn struct {
	Kind Kind
	V    Var
	Site source.Span
	What Reason
}

// PairNotIn is the check that no location ρ″ has KindA(ρ″) in VA and
// KindB(ρ″) in VB simultaneously. The confine checking rule uses it
// for "no location read by e₁ is written/allocated by e₂".
type PairNotIn struct {
	KindA Kind
	VA    Var
	KindB Kind
	VB    Var
	Site  source.Span
	What  Reason
}

// Trigger is the antecedent of a conditional constraint.
type Trigger interface{ trigger() }

// LocIn fires when an atom of any kind over Loc enters V.
type LocIn struct {
	Loc locs.Loc
	V   Var
}

// AtomIn fires when the specific atom Kind(Loc) enters V.
type AtomIn struct {
	Kind Kind
	Loc  locs.Loc
	V    Var
}

// KindIn fires when an atom of kind Kind (over any location) enters
// V. It implements the paper's "∀ρ″. write(ρ″) ∈ L₁ ⇒ …" premises.
type KindIn struct {
	Kind Kind
	V    Var
}

// PairIn fires for each location ρ″ such that an atom KindA(ρ″) is in
// VA and an atom KindB(ρ″) is in VB. It implements the premises
// "∀ρ″. read(ρ″) ∈ L₁ ∧ write(ρ″) ∈ L₂ ⇒ …".
type PairIn struct {
	KindA Kind
	VA    Var
	KindB Kind
	VB    Var
}

func (LocIn) trigger()  {}
func (AtomIn) trigger() {}
func (KindIn) trigger() {}
func (PairIn) trigger() {}

// Action is the consequent of a conditional constraint.
type Action interface{ action() }

// ActUnify merges the fresh copy B into the location A it copies (the
// "then ρ = ρ′" consequents; see locs.Store.Absorb).
type ActUnify struct {
	A, B locs.Loc
}

// ActIncl adds the inclusion From ⊆ To (the "then L₁ ⊆ π′"
// consequents).
type ActIncl struct {
	From Var
	To   Var
}

// ActAddAtom adds the atom A to V. Paired with an AtomIn trigger it
// implements "X(ρ′) ∈ L₂ ⇒ {X(ρ)} ⊆ π": the extra effect on the
// restricted location in the conclusion of (Restrict), made
// conditional for inference (Sections 5 and 6).
type ActAddAtom struct {
	A Atom
	V Var
}

func (ActUnify) action()   {}
func (ActIncl) action()    {}
func (ActAddAtom) action() {}

// Cond is one conditional constraint: when Trigger fires, all Actions
// run. Reason describes the condition for diagnostics (e.g. "ρ used
// in restrict body" or "confined expression written in scope").
type Cond struct {
	Trigger Trigger
	Actions []Action
	Reason  Reason
}

// Reason is a lazily rendered constraint label, in the spirit of
// varName: inference emits half a dozen conditionals per candidate and
// several checks per annotation, and their text is read only when a
// rejection is explained or a violation reported, so the pieces are
// stored unjoined and String assembles them. The rendering is
// `Kind "Name": Why`, or Why alone when Kind is empty.
type Reason struct {
	Kind, Name, Why string
}

func (r Reason) String() string {
	if r.Kind == "" {
		return r.Why
	}
	return r.Kind + " " + strconv.Quote(r.Name) + ": " + r.Why
}

// ---------------------------------------------------------------------
// System

// varName is a lazily concatenated diagnostic label. Inference mints
// tens of thousands of variables whose names are only ever read when
// a diagnostic prints, so the pieces ("esc(", name, ")") are stored
// unjoined and assembled on demand by VarName.
type varName struct {
	pre, mid, suf string
}

// System accumulates the constraints generated by one inference run.
type System struct {
	Locs *locs.Store

	varNames []varName

	// The three inclusion forms, each in its own dense list: inference
	// builds every inclusion in the normal form the solver reads.
	VarIncls   []VarIncl
	AtomIncls  []AtomIncl
	InterIncls []InterIncl
	NotIns     []NotIn
	KindNotIns []KindNotIn
	PairNotIns []PairNotIn
	Conds      []*Cond

	// Shared names the one variable every intersection reads by
	// membership (NoVar for none): L ∩ R ⊆ ε then means
	// L ∩ (R ∪ Shared) ⊆ ε. Inference points it at Γ(globals), the
	// locations every function's (Down) keeps, so that no function
	// needs its own copy of them.
	Shared Var
}

// VarIncl is the dense representation of From ⊆ To.
type VarIncl struct {
	From, To Var
}

// AtomIncl is the dense representation of {A} ⊆ V.
type AtomIncl struct {
	A Atom
	V Var
}

// InterIncl is the dense representation of L ∩ R ⊆ V (see the package
// comment for the reading of ∩ on mixed atom kinds).
type InterIncl struct {
	L, R, V Var
}

// NewSystem returns an empty system over the given location store.
func NewSystem(ls *locs.Store) *System {
	return &System{Locs: ls, Shared: NoVar}
}

// Reset empties s, keeping the capacity of every table and its
// location store (which the caller resets), so a later run over the
// same module builds its constraints in this run's storage.
func (s *System) Reset() {
	*s = System{
		Locs:       s.Locs,
		varNames:   emptied(s.varNames),
		VarIncls:   s.VarIncls[:0],
		AtomIncls:  s.AtomIncls[:0],
		InterIncls: s.InterIncls[:0],
		NotIns:     emptied(s.NotIns),
		KindNotIns: emptied(s.KindNotIns),
		PairNotIns: emptied(s.PairNotIns),
		Conds:      emptied(s.Conds),
		Shared:     NoVar,
	}
}

// emptied clears x (dropping what its elements point to) and returns
// it truncated, capacity kept.
func emptied[T any](x []T) []T {
	clear(x)
	return x[:0]
}

// NumVars returns the number of effect variables created.
func (s *System) NumVars() int { return len(s.varNames) }

// VarName returns the diagnostic name of v.
func (s *System) VarName(v Var) string {
	if v < 0 || int(v) >= len(s.varNames) {
		return fmt.Sprintf("ε%d", v)
	}
	n := s.varNames[v]
	if n.pre == "" && n.suf == "" {
		return n.mid
	}
	return n.pre + n.mid + n.suf
}

// Fresh creates a new effect variable.
func (s *System) Fresh(name string) Var {
	return s.FreshN("", name, "")
}

// Reserve pre-sizes the variable table and the dense inclusion lists
// for roughly vars variables and incls inclusions, so a caller that
// can estimate the system's size (inference knows the expression
// count) avoids growth reallocation on the hot path. Estimates may be
// exceeded freely; growth then proceeds normally.
//
// Over the 589 corpus modules a base run mints 0.59 variables and 0.80
// inclusions per typed expression and a confine run 0.82 and 1.22; no
// run of any module exceeds 1.00 and 1.50. A run in an earlier run's
// storage (infer.RunOver) reserves exactly that; a fresh run reserves
// 20% more, so that the planted program's run fits in its tables.
func (s *System) Reserve(vars, incls int) {
	if cap(s.varNames) < vars {
		grown := make([]varName, len(s.varNames), vars)
		copy(grown, s.varNames)
		s.varNames = grown
	}
	if cap(s.VarIncls) < incls {
		grown := make([]VarIncl, len(s.VarIncls), incls)
		copy(grown, s.VarIncls)
		s.VarIncls = grown
	}
	if cap(s.AtomIncls) < incls/2 {
		grown := make([]AtomIncl, len(s.AtomIncls), incls/2)
		copy(grown, s.AtomIncls)
		s.AtomIncls = grown
	}
}

// FreshN creates a new effect variable whose diagnostic name is
// pre+mid+suf, deferring the concatenation until VarName is called.
func (s *System) FreshN(pre, mid, suf string) Var {
	v := Var(len(s.varNames))
	s.varNames = append(s.varNames, varName{pre: pre, mid: mid, suf: suf})
	return v
}

// AddAtom records {a} ⊆ v.
func (s *System) AddAtom(a Atom, v Var) {
	s.AtomIncls = append(s.AtomIncls, AtomIncl{A: a, V: v})
}

// AddVarIncl records from ⊆ to.
func (s *System) AddVarIncl(from, to Var) {
	if from == to {
		return
	}
	s.VarIncls = append(s.VarIncls, VarIncl{From: from, To: to})
}

// AddInter records l ∩ r ⊆ v.
func (s *System) AddInter(l, r, v Var) {
	s.InterIncls = append(s.InterIncls, InterIncl{L: l, R: r, V: v})
}

// AddNotIn records the check ρ ∉ v.
func (s *System) AddNotIn(loc locs.Loc, v Var, site source.Span, what Reason) {
	s.NotIns = append(s.NotIns, NotIn{Loc: loc, V: v, Site: site, What: what})
}

// AddKindNotIn records the check "no Kind atom in v".
func (s *System) AddKindNotIn(k Kind, v Var, site source.Span, what Reason) {
	s.KindNotIns = append(s.KindNotIns, KindNotIn{Kind: k, V: v, Site: site, What: what})
}

// AddPairNotIn records the check "no ρ″ with ka(ρ″) ∈ va and
// kb(ρ″) ∈ vb".
func (s *System) AddPairNotIn(ka Kind, va Var, kb Kind, vb Var, site source.Span, what Reason) {
	s.PairNotIns = append(s.PairNotIns, PairNotIn{KindA: ka, VA: va, KindB: kb, VB: vb, Site: site, What: what})
}

// AddCond records a conditional constraint.
func (s *System) AddCond(c *Cond) {
	s.Conds = append(s.Conds, c)
}

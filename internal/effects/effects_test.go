package effects

import (
	"testing"

	"localalias/internal/locs"
)

func TestVarNames(t *testing.T) {
	ls := locs.NewStore()
	s := NewSystem(ls)
	v := s.Fresh("body(foo)")
	if s.VarName(v) != "body(foo)" {
		t.Errorf("VarName = %q", s.VarName(v))
	}
	if s.VarName(Var(99)) == "" {
		t.Error("out-of-range VarName must still render")
	}
}

// TestInclusionsBornNormal: each builder appends to its own list, a
// self-inclusion ε ⊆ ε is dropped, and Reset empties all three lists.
func TestInclusionsBornNormal(t *testing.T) {
	ls := locs.NewStore()
	s := NewSystem(ls)
	rho := ls.Fresh("r")
	e1, e2, e3 := s.Fresh("e1"), s.Fresh("e2"), s.Fresh("e3")
	s.AddAtom(Atom{Kind: Read, Loc: rho}, e1)
	s.AddVarIncl(e1, e2)
	s.AddVarIncl(e2, e2)
	s.AddInter(e1, e2, e3)
	if len(s.AtomIncls) != 1 || len(s.VarIncls) != 1 || len(s.InterIncls) != 1 {
		t.Fatalf("lists: atom %v, var %v, inter %v", s.AtomIncls, s.VarIncls, s.InterIncls)
	}
	if got := s.InterIncls[0]; got != (InterIncl{L: e1, R: e2, V: e3}) {
		t.Errorf("AddInter recorded %+v", got)
	}
	s.Reset()
	if len(s.AtomIncls)+len(s.VarIncls)+len(s.InterIncls) != 0 {
		t.Error("Reset left inclusions behind")
	}
}

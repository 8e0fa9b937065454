package token

import "testing"

func TestLookupIdent(t *testing.T) {
	cases := map[string]Kind{
		"let":      KwLet,
		"restrict": KwRestrict,
		"confine":  KwConfine,
		"in":       KwIn,
		"new":      KwNew,
		"fun":      KwFun,
		"return":   KwReturn,
		"if":       KwIf,
		"else":     KwElse,
		"while":    KwWhile,
		"global":   KwGlobal,
		"struct":   KwStruct,
		"int":      KwInt,
		"unit":     KwUnit,
		"lock":     KwLock,
		"ref":      KwRef,
		"import":   KwImport,
		"foo":      Ident,
		"Restrict": Ident, // keywords are case-sensitive
		"":         Ident,
	}
	for s, want := range cases {
		if got := LookupIdent(s); got != want {
			t.Errorf("LookupIdent(%q) = %v, want %v", s, got, want)
		}
	}
}

func TestKindStrings(t *testing.T) {
	// Every keyword's String must be its spelling, which LookupIdent
	// maps back to the keyword.
	for k := KwLet; k < kindCount; k++ {
		if got := LookupIdent(k.String()); got != k {
			t.Errorf("LookupIdent(%q) = %v, want %v", k.String(), got, k)
		}
	}
	cases := map[Kind]string{
		Plus: "+", Minus: "-", Star: "*", Slash: "/", Percent: "%",
		Amp: "&", AndAnd: "&&", OrOr: "||", Not: "!", Assign: "=",
		Eq: "==", NotEq: "!=", Less: "<", LessEq: "<=",
		Greater: ">", GreatEq: ">=", Arrow: "->", Dot: ".",
		LParen: "(", RParen: ")", LBrack: "[", RBrack: "]",
		LBrace: "{", RBrace: "}", Comma: ",", Semi: ";", Colon: ":",
		EOF: "EOF", Ident: "IDENT", Int: "INT", Illegal: "ILLEGAL",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
	if Kind(9999).String() == "" {
		t.Error("out-of-range kinds must still render")
	}
}

func TestIsKeyword(t *testing.T) {
	for _, k := range []Kind{KwLet, KwRestrict, KwRef, KwLock} {
		if !k.IsKeyword() {
			t.Errorf("%v must be a keyword", k)
		}
	}
	for _, k := range []Kind{Ident, Int, Plus, EOF, Illegal} {
		if k.IsKeyword() {
			t.Errorf("%v must not be a keyword", k)
		}
	}
}

func TestIsLiteral(t *testing.T) {
	if !Ident.IsLiteral() || !Int.IsLiteral() {
		t.Error("Ident and Int carry spellings")
	}
	if Plus.IsLiteral() || KwLet.IsLiteral() {
		t.Error("operators and keywords do not")
	}
}

func TestPrecedence(t *testing.T) {
	// || < && < comparisons < additive < multiplicative.
	ordered := [][]Kind{
		{OrOr},
		{AndAnd},
		{Eq, NotEq, Less, LessEq, Greater, GreatEq},
		{Plus, Minus},
		{Star, Slash, Percent},
	}
	for level, ks := range ordered {
		for _, k := range ks {
			if k.Precedence() != level+1 {
				t.Errorf("%v precedence = %d, want %d", k, k.Precedence(), level+1)
			}
		}
	}
	for _, k := range []Kind{Assign, Not, LParen, Ident, EOF} {
		if k.Precedence() != 0 {
			t.Errorf("%v is not a binary operator", k)
		}
	}
}

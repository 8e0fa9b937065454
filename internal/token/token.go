// Package token defines the lexical tokens of MiniC, the small
// imperative language over which the restrict/confine type-and-effect
// systems of Aiken et al. (PLDI 2003) are implemented.
//
// MiniC is the paper's core language (variables, integers, new,
// dereference, assignment, let, restrict, confine) extended with the
// standard features needed to express Linux-driver-style locking code:
// functions, blocks, conditionals, loops, arrays, structs, globals,
// address-of, field access, and the spin_lock/spin_unlock/change_type
// builtins.
package token

import "fmt"

// Kind identifies a lexical token class.
type Kind int

// The token kinds.
const (
	Illegal Kind = iota
	EOF
	Comment

	// Literals and identifiers.
	Ident  // foo
	Int    // 1234
	String // "pkg"

	// Operators and delimiters.
	Plus    // +
	Minus   // -
	Star    // *
	Slash   // /
	Percent // %

	Amp     // &
	AndAnd  // &&
	OrOr    // ||
	Not     // !
	Assign  // =
	Eq      // ==
	NotEq   // !=
	Less    // <
	LessEq  // <=
	Greater // >
	GreatEq // >=

	Arrow // ->
	Dot   // .

	LParen   // (
	RParen   // )
	LBrack   // [
	RBrack   // ]
	LBrace   // {
	RBrace   // }
	Comma    // ,
	Semi     // ;
	Colon    // :
	Question // ?

	// Keywords.
	KwLet
	KwRestrict
	KwConfine
	KwIn
	KwNew
	KwFun
	KwReturn
	KwIf
	KwElse
	KwWhile
	KwGlobal
	KwStruct
	KwInt
	KwUnit
	KwLock
	KwRef
	KwImport

	kindCount
)

var kindNames = [...]string{
	Illegal:  "ILLEGAL",
	EOF:      "EOF",
	Comment:  "COMMENT",
	Ident:    "IDENT",
	Int:      "INT",
	String:   "STRING",
	Plus:     "+",
	Minus:    "-",
	Star:     "*",
	Slash:    "/",
	Percent:  "%",
	Amp:      "&",
	AndAnd:   "&&",
	OrOr:     "||",
	Not:      "!",
	Assign:   "=",
	Eq:       "==",
	NotEq:    "!=",
	Less:     "<",
	LessEq:   "<=",
	Greater:  ">",
	GreatEq:  ">=",
	Arrow:    "->",
	Dot:      ".",
	LParen:   "(",
	RParen:   ")",
	LBrack:   "[",
	RBrack:   "]",
	LBrace:   "{",
	RBrace:   "}",
	Comma:    ",",
	Semi:     ";",
	Colon:    ":",
	Question: "?",

	KwLet:      "let",
	KwRestrict: "restrict",
	KwConfine:  "confine",
	KwIn:       "in",
	KwNew:      "new",
	KwFun:      "fun",
	KwReturn:   "return",
	KwIf:       "if",
	KwElse:     "else",
	KwWhile:    "while",
	KwGlobal:   "global",
	KwStruct:   "struct",
	KwInt:      "int",
	KwUnit:     "unit",
	KwLock:     "lock",
	KwRef:      "ref",
	KwImport:   "import",
}

// String returns the spelling of the token kind (or its class name for
// variable-spelling kinds like Ident and Int).
func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// LookupIdent classifies an identifier spelling, returning the keyword
// kind when the spelling is reserved and Ident otherwise. The lexer
// calls it for every identifier, so it compiles to a string switch
// rather than hashing into a map.
func LookupIdent(s string) Kind {
	switch s {
	case "let":
		return KwLet
	case "restrict":
		return KwRestrict
	case "confine":
		return KwConfine
	case "in":
		return KwIn
	case "new":
		return KwNew
	case "fun":
		return KwFun
	case "return":
		return KwReturn
	case "if":
		return KwIf
	case "else":
		return KwElse
	case "while":
		return KwWhile
	case "global":
		return KwGlobal
	case "struct":
		return KwStruct
	case "int":
		return KwInt
	case "unit":
		return KwUnit
	case "lock":
		return KwLock
	case "ref":
		return KwRef
	case "import":
		return KwImport
	}
	return Ident
}

// IsKeyword reports whether k is a reserved word.
func (k Kind) IsKeyword() bool { return k >= KwLet && k < kindCount }

// IsLiteral reports whether k carries a spelling of its own
// (identifier, integer, or string literal).
func (k Kind) IsLiteral() bool { return k == Ident || k == Int || k == String }

// Precedence returns the binary-operator precedence of k, higher
// binding tighter, or 0 when k is not a binary operator.
func (k Kind) Precedence() int {
	switch k {
	case OrOr:
		return 1
	case AndAnd:
		return 2
	case Eq, NotEq, Less, LessEq, Greater, GreatEq:
		return 3
	case Plus, Minus:
		return 4
	case Star, Slash, Percent:
		return 5
	}
	return 0
}

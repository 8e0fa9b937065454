// Package funcidx indexes a MiniC module's top-level declarations and
// diffs two revisions of it. Its only non-test caller is the steady
// benchmark, which times Build, Diff and Invalidated per request as
// the per-layer metric funcidx.us_per_request; no daemon path uses
// it.
//
// The index is a purely lexical view of a module: one entry per
// top-level declaration (fun / global / struct), each keyed by a
// token-stream content hash, plus the reference edges between them —
// which functions a function calls, and which globals (locks
// included) or struct types it mentions. Comparing two revisions'
// indexes yields exactly the declarations that changed, and the
// reverse edges give the invalidation closure: the functions whose
// analysis could be affected by those changes. The tests pin its
// rules: a comment-only edit changes nothing, editing a function
// invalidates it and its (transitive) callers, editing a shared global
// or lock declaration invalidates every function that touches it.
//
// Hashes cover token kinds and spellings only — never positions — so
// whitespace and comment edits are invisible by construction.
package funcidx

import (
	"crypto/sha256"
	"sort"

	"localalias/internal/lexer"
	"localalias/internal/source"
	"localalias/internal/token"
)

// DeclKind classifies a top-level declaration.
type DeclKind uint8

const (
	KindFunc DeclKind = iota
	KindGlobal
	KindStruct
)

func (k DeclKind) String() string {
	switch k {
	case KindFunc:
		return "fun"
	case KindGlobal:
		return "global"
	case KindStruct:
		return "struct"
	}
	return "?"
}

// Decl is one indexed top-level declaration.
type Decl struct {
	Kind DeclKind
	Name string
	// Hash is a SHA-256 over the declaration's token stream (kinds and
	// spellings, no positions): insensitive to whitespace and comments,
	// sensitive to any token-level edit including the signature.
	Hash [32]byte
	// Span covers the declaration in the source (diagnostic use only;
	// never hashed).
	Span source.Span

	// Calls lists the names of indexed functions this function's body
	// mentions; Refs lists the indexed globals (locks are globals) and
	// struct type names it mentions. Both sorted, deduplicated, and
	// empty for non-function declarations.
	Calls []string
	Refs  []string

	// mentions holds the raw identifier spellings seen in a function
	// body during scanning; Build resolves them into Calls/Refs once
	// every declaration is known (forward references).
	mentions []string
}

// Index is the per-module declaration index of one source revision.
type Index struct {
	// Decls in source order.
	Decls []*Decl
	// byKey maps DeclKind.String()+" "+name to the declaration.
	byKey map[string]*Decl
}

// Func returns the indexed function of that name, or nil.
func (ix *Index) Func(name string) *Decl { return ix.byKey["fun "+name] }

// Lookup returns the declaration for a kind and name, or nil.
func (ix *Index) Lookup(kind DeclKind, name string) *Decl {
	return ix.byKey[kind.String()+" "+name]
}

// NumFuncs counts the indexed functions.
func (ix *Index) NumFuncs() int {
	n := 0
	for _, d := range ix.Decls {
		if d.Kind == KindFunc {
			n++
		}
	}
	return n
}

// Build lexes src and indexes its top-level declarations. Lexically
// malformed input degrades gracefully: the scanner's error recovery
// still produces a token stream, and whatever declarations are
// recognizable are indexed (the analysis pipeline itself reports the
// real diagnostics).
func Build(name, src string) *Index {
	var diags source.Diagnostics
	toks := lexer.ScanAll(source.NewFile(name, src), &diags)
	ix := &Index{byKey: make(map[string]*Decl)}

	i := 0
	for toks[i].Kind != token.EOF {
		switch toks[i].Kind {
		case token.KwFun:
			i = scanFunc(toks, i, ix)
		case token.KwGlobal:
			i = scanSimpleDecl(toks, i, ix, KindGlobal)
		case token.KwStruct:
			i = scanBracedDecl(toks, i, ix, KindStruct)
		default:
			// Unknown top-level token (malformed source): skip it.
			i++
		}
	}

	// Resolve each function's identifier mentions against the indexed
	// names. This is post-pass so forward references resolve.
	funcNames := make(map[string]bool)
	refNames := make(map[string]bool)
	for _, d := range ix.Decls {
		switch d.Kind {
		case KindFunc:
			funcNames[d.Name] = true
		default:
			refNames[d.Kind.String()+" "+d.Name] = true
		}
	}
	for _, d := range ix.Decls {
		if d.Kind != KindFunc {
			continue
		}
		calls := map[string]bool{}
		refs := map[string]bool{}
		for _, id := range d.mentions {
			if funcNames[id] && id != d.Name {
				calls[id] = true
			}
			if refNames["global "+id] {
				refs[id] = true
			}
			if refNames["struct "+id] {
				refs[id] = true
			}
		}
		d.Calls = sortedKeys(calls)
		d.Refs = sortedKeys(refs)
	}
	return ix
}

// mentions is collected during scanning and discarded after edge
// resolution; it is unexported state on Decl rather than a parallel
// structure so scanners stay simple.
func sortedKeys(m map[string]bool) []string {
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// hashTokens hashes a token slice by kind and spelling. A length
// prefix per token separates spellings so "ab","c" and "a","bc"
// cannot collide.
func hashTokens(toks []lexer.Token) [32]byte {
	h := sha256.New()
	var buf [8]byte
	for _, t := range toks {
		buf[0] = byte(t.Kind)
		buf[1] = byte(t.Kind >> 8)
		n := len(t.Lit)
		buf[2] = byte(n)
		buf[3] = byte(n >> 8)
		buf[4] = byte(n >> 16)
		buf[5] = byte(n >> 24)
		h.Write(buf[:6])
		h.Write([]byte(t.Lit))
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

func (ix *Index) add(d *Decl) {
	ix.Decls = append(ix.Decls, d)
	ix.byKey[d.Kind.String()+" "+d.Name] = d
}

// scanFunc indexes `fun IDENT ( ... ) [: type] { ... }` starting at
// the KwFun token; returns the index after the declaration.
func scanFunc(toks []lexer.Token, i int, ix *Index) int {
	start := i
	i++ // fun
	name := ""
	if toks[i].Kind == token.Ident {
		name = toks[i].Lit
	}
	// Find the body's opening brace, then the matching close.
	for toks[i].Kind != token.LBrace && toks[i].Kind != token.EOF {
		i++
	}
	depth := 0
	var mentions []string
	bodyStart := i
	for toks[i].Kind != token.EOF {
		switch toks[i].Kind {
		case token.LBrace:
			depth++
		case token.RBrace:
			depth--
		case token.Ident:
			if i > bodyStart {
				mentions = append(mentions, toks[i].Lit)
			}
		}
		i++
		if depth == 0 {
			break
		}
	}
	if name == "" {
		return i
	}
	ix.add(&Decl{
		Kind:     KindFunc,
		Name:     name,
		Hash:     hashTokens(toks[start:i]),
		Span:     source.Span{Start: toks[start].Span.Start, End: toks[i-1].Span.End},
		mentions: mentions,
	})
	return i
}

// scanSimpleDecl indexes a semicolon-terminated declaration
// (`global IDENT : type ;`).
func scanSimpleDecl(toks []lexer.Token, i int, ix *Index, kind DeclKind) int {
	start := i
	i++ // keyword
	name := ""
	if toks[i].Kind == token.Ident {
		name = toks[i].Lit
	}
	for toks[i].Kind != token.Semi && toks[i].Kind != token.EOF {
		i++
	}
	if toks[i].Kind == token.Semi {
		i++
	}
	if name == "" {
		return i
	}
	ix.add(&Decl{
		Kind: kind,
		Name: name,
		Hash: hashTokens(toks[start:i]),
		Span: source.Span{Start: toks[start].Span.Start, End: toks[i-1].Span.End},
	})
	return i
}

// scanBracedDecl indexes a brace-delimited declaration
// (`struct IDENT { fields }`).
func scanBracedDecl(toks []lexer.Token, i int, ix *Index, kind DeclKind) int {
	start := i
	i++ // keyword
	name := ""
	if toks[i].Kind == token.Ident {
		name = toks[i].Lit
	}
	for toks[i].Kind != token.LBrace && toks[i].Kind != token.EOF {
		i++
	}
	depth := 0
	for toks[i].Kind != token.EOF {
		switch toks[i].Kind {
		case token.LBrace:
			depth++
		case token.RBrace:
			depth--
		}
		i++
		if depth == 0 {
			break
		}
	}
	if name == "" {
		return i
	}
	ix.add(&Decl{
		Kind: kind,
		Name: name,
		Hash: hashTokens(toks[start:i]),
		Span: source.Span{Start: toks[start].Span.Start, End: toks[i-1].Span.End},
	})
	return i
}

// ---------------------------------------------------------------------
// Diffing and invalidation

// Delta is the declaration-level difference between two revisions.
// Keys are "kind name" strings ("fun main", "global l", "struct s"),
// each list sorted.
type Delta struct {
	// Changed: present in both revisions with different token hashes.
	Changed []string
	// Added / Removed: present in only one revision. A rename shows up
	// as one Removed plus one Added.
	Added   []string
	Removed []string
}

// Empty reports a revision pair with no declaration-level difference —
// a comment or whitespace-only edit.
func (d Delta) Empty() bool {
	return len(d.Changed) == 0 && len(d.Added) == 0 && len(d.Removed) == 0
}

// Diff compares two revisions' indexes declaration by declaration.
func Diff(old, new *Index) Delta {
	var d Delta
	for key, nd := range new.byKey {
		if od, ok := old.byKey[key]; !ok {
			d.Added = append(d.Added, key)
		} else if od.Hash != nd.Hash {
			d.Changed = append(d.Changed, key)
		}
	}
	for key := range old.byKey {
		if _, ok := new.byKey[key]; !ok {
			d.Removed = append(d.Removed, key)
		}
	}
	sort.Strings(d.Changed)
	sort.Strings(d.Added)
	sort.Strings(d.Removed)
	return d
}

// Invalidated computes the set of functions in the new revision whose
// analysis the delta could affect, as sorted names:
//
//   - a changed or added function invalidates itself;
//   - a changed function additionally invalidates its transitive
//     callers (summaries inline callees, so a caller's analysis
//     depends on everything it reaches);
//   - a removed function invalidates its former callers that still
//     exist;
//   - a changed, added, or removed global or struct declaration (a
//     shared lock is a global) invalidates every function that
//     mentions it.
func Invalidated(old, new *Index, d Delta) []string {
	// Reverse call edges over the new revision, plus the old revision's
	// for removed names: a deleted (or renamed-away) function no longer
	// resolves in the new index, so its former call sites are only
	// visible through the old edges.
	callers := make(map[string][]string)
	for _, decl := range new.Decls {
		if decl.Kind != KindFunc {
			continue
		}
		for _, callee := range decl.Calls {
			callers[callee] = append(callers[callee], decl.Name)
		}
	}
	oldCallers := make(map[string][]string)
	for _, decl := range old.Decls {
		if decl.Kind != KindFunc {
			continue
		}
		for _, callee := range decl.Calls {
			oldCallers[callee] = append(oldCallers[callee], decl.Name)
		}
	}

	dirty := make(map[string]bool)
	var markCallers func(name string)
	markCallers = func(name string) {
		for _, c := range callers[name] {
			if !dirty[c] {
				dirty[c] = true
				markCallers(c)
			}
		}
	}

	handle := func(key string, removed bool) {
		kind, name, ok := splitKey(key)
		if !ok {
			return
		}
		switch kind {
		case "fun":
			if !removed {
				dirty[name] = true
				markCallers(name)
				return
			}
			// Removed function: its former callers (from the old call
			// graph) that still exist now dangle or resolve differently.
			for _, c := range oldCallers[name] {
				if new.Func(c) != nil && !dirty[c] {
					dirty[c] = true
					markCallers(c)
				}
			}
		case "global", "struct":
			for _, decl := range new.Decls {
				if decl.Kind != KindFunc {
					continue
				}
				for _, r := range decl.Refs {
					if r == name && !dirty[decl.Name] {
						dirty[decl.Name] = true
						markCallers(decl.Name)
					}
				}
			}
		}
	}
	for _, key := range d.Changed {
		handle(key, false)
	}
	for _, key := range d.Added {
		handle(key, false)
	}
	for _, key := range d.Removed {
		handle(key, true)
	}
	return sortedKeys(dirty)
}

func splitKey(key string) (kind, name string, ok bool) {
	for i := 0; i < len(key); i++ {
		if key[i] == ' ' {
			return key[:i], key[i+1:], true
		}
	}
	return "", "", false
}

// Package source provides source files, positions, spans and structured
// diagnostics shared by every phase of the pipeline (lexing, parsing,
// type checking, alias-and-effect inference, restrict/confine checking
// and the flow-sensitive qualifier analysis).
//
// A File owns the raw text of one compilation unit and a line index so
// byte offsets can be rendered as line:column pairs. Positions are
// plain byte offsets into a File; Spans are half-open offset ranges.
package source

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// File is one source file (or synthesized compilation unit).
type File struct {
	// Name is the display name used in diagnostics, e.g. "driver.mc".
	Name string
	// Text is the full contents of the file.
	Text string

	lineStarts []int // byte offset of the start of each line
}

// NewFile builds a File and its line index.
func NewFile(name, text string) *File {
	f := &File{Name: name, Text: text}
	f.lineStarts = make([]int, 1, strings.Count(text, "\n")+1)
	for i := 0; i < len(text); i++ {
		if text[i] == '\n' {
			f.lineStarts = append(f.lineStarts, i+1)
		}
	}
	return f
}

// Pos is a byte offset into a File. The zero value is the start of the
// file; NoPos marks a missing position.
type Pos int

// NoPos is the absent position.
const NoPos Pos = -1

// IsValid reports whether p refers to an actual offset.
func (p Pos) IsValid() bool { return p >= 0 }

// Span is a half-open byte range [Start, End) within one File.
type Span struct {
	Start, End Pos
}

// NoSpan is the absent span.
var NoSpan = Span{NoPos, NoPos}

// IsValid reports whether the span has a real start offset.
func (s Span) IsValid() bool { return s.Start.IsValid() }

// Union returns the smallest span covering both s and t. Invalid spans
// are ignored.
func (s Span) Union(t Span) Span {
	switch {
	case !s.IsValid():
		return t
	case !t.IsValid():
		return s
	}
	u := s
	if t.Start < u.Start {
		u.Start = t.Start
	}
	if t.End > u.End {
		u.End = t.End
	}
	return u
}

// Position is a resolved human-readable location.
type Position struct {
	Name   string // file name
	Line   int    // 1-based
	Column int    // 1-based, in bytes
}

func (p Position) String() string {
	if p.Name == "" {
		return strconv.Itoa(p.Line) + ":" + strconv.Itoa(p.Column)
	}
	return p.Name + ":" + strconv.Itoa(p.Line) + ":" + strconv.Itoa(p.Column)
}

// Position resolves a byte offset to a line/column pair.
func (f *File) Position(p Pos) Position {
	if !p.IsValid() {
		return Position{Name: f.Name, Line: 0, Column: 0}
	}
	i := sort.Search(len(f.lineStarts), func(i int) bool {
		return f.lineStarts[i] > int(p)
	}) - 1
	if i < 0 {
		i = 0
	}
	return Position{
		Name:   f.Name,
		Line:   i + 1,
		Column: int(p) - f.lineStarts[i] + 1,
	}
}

// Line returns the text of the 1-based line n, without its newline.
func (f *File) Line(n int) string {
	if n < 1 || n > len(f.lineStarts) {
		return ""
	}
	start := f.lineStarts[n-1]
	end := len(f.Text)
	if n < len(f.lineStarts) {
		end = f.lineStarts[n] - 1
	}
	return strings.TrimRight(f.Text[start:end], "\r")
}

// Severity classifies a diagnostic.
type Severity int

// Diagnostic severities, from least to most severe.
const (
	Note Severity = iota
	Warning
	Error
)

func (s Severity) String() string {
	switch s {
	case Note:
		return "note"
	case Warning:
		return "warning"
	case Error:
		return "error"
	default:
		return fmt.Sprintf("severity(%d)", int(s))
	}
}

// Diagnostic is one message attached to a span of one file.
type Diagnostic struct {
	File     *File
	Span     Span
	Severity Severity
	// Phase identifies the producing analysis, e.g. "parse", "types",
	// "restrict", "qual".
	Phase   string
	Message string
}

func (d *Diagnostic) String() string {
	pos := ""
	if d.File != nil {
		pos = d.File.Position(d.Span.Start).String() + ": "
	}
	if d.Phase != "" {
		return fmt.Sprintf("%s%s: [%s] %s", pos, d.Severity, d.Phase, d.Message)
	}
	return fmt.Sprintf("%s%s: %s", pos, d.Severity, d.Message)
}

// Diagnostics accumulates messages during a phase. The zero value is
// ready to use.
type Diagnostics struct {
	List []*Diagnostic
}

// Add appends a diagnostic.
func (ds *Diagnostics) Add(d *Diagnostic) { ds.List = append(ds.List, d) }

// Errorf records an error-severity diagnostic.
func (ds *Diagnostics) Errorf(f *File, sp Span, phase, format string, args ...any) {
	ds.Add(&Diagnostic{File: f, Span: sp, Severity: Error, Phase: phase, Message: fmt.Sprintf(format, args...)})
}

// Warnf records a warning-severity diagnostic.
func (ds *Diagnostics) Warnf(f *File, sp Span, phase, format string, args ...any) {
	ds.Add(&Diagnostic{File: f, Span: sp, Severity: Warning, Phase: phase, Message: fmt.Sprintf(format, args...)})
}

// Notef records a note-severity diagnostic.
func (ds *Diagnostics) Notef(f *File, sp Span, phase, format string, args ...any) {
	ds.Add(&Diagnostic{File: f, Span: sp, Severity: Note, Phase: phase, Message: fmt.Sprintf(format, args...)})
}

// HasErrors reports whether any error-severity diagnostic was recorded.
func (ds *Diagnostics) HasErrors() bool {
	for _, d := range ds.List {
		if d.Severity == Error {
			return true
		}
	}
	return false
}

// ErrorCount returns the number of error-severity diagnostics.
func (ds *Diagnostics) ErrorCount() int {
	n := 0
	for _, d := range ds.List {
		if d.Severity == Error {
			n++
		}
	}
	return n
}

// String renders all diagnostics, one per line.
func (ds *Diagnostics) String() string {
	var b strings.Builder
	for _, d := range ds.List {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Err returns an error summarizing the diagnostics if any error-severity
// entries exist, and nil otherwise.
func (ds *Diagnostics) Err() error {
	if !ds.HasErrors() {
		return nil
	}
	first := ""
	for _, d := range ds.List {
		if d.Severity == Error {
			first = d.String()
			break
		}
	}
	n := ds.ErrorCount()
	if n == 1 {
		return fmt.Errorf("%s", first)
	}
	return fmt.Errorf("%s (and %d more errors)", first, n-1)
}

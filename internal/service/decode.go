package service

import (
	"bytes"
	"strings"
	"unicode/utf8"
)

// decodeOnePass decodes a request body into dst, an *AnalyzeRequest or
// a *BatchRequest, and reports true; or it declines with false, leaves
// dst untouched, and the body goes to json.Unmarshal, so that every
// error text, case-insensitive key match, ignored unknown field and
// U+FFFD replacement stays encoding/json's own. It accepts only the
// shape encoding/json itself writes for these types, on which
// json.Unmarshal yields the same value:
//
//   - every key is one of the type's exact lower-case names, at most
//     once per object (json matches keys case-insensitively and lets a
//     repeated key overwrite or merge);
//   - no null;
//   - strings hold valid UTF-8, no raw control character, and only the
//     escapes \" \\ \/ \b \f \n \r \t and \uXXXX outside the surrogate
//     range;
//   - nothing but whitespace after the value.
func decodeOnePass(body []byte, dst any) bool {
	d := onePass{b: body}
	switch v := dst.(type) {
	case *AnalyzeRequest:
		var req AnalyzeRequest
		if !d.request(&req) || !d.end() {
			return false
		}
		*v = req
	case *BatchRequest:
		var batch BatchRequest
		if !d.batch(&batch) || !d.end() {
			return false
		}
		*v = batch
	default:
		return false
	}
	return true
}

// onePass is the decoder's cursor: b[i:] is still to read.
type onePass struct {
	b []byte
	i int
}

// fields tracks which keys of one object have been seen.
type fields uint8

// first marks key bit k seen and reports whether it was new.
func (f *fields) first(k uint) bool {
	if *f&(1<<k) != 0 {
		return false
	}
	*f |= 1 << k
	return true
}

func (d *onePass) batch(out *BatchRequest) bool {
	var seen fields
	return d.object(func(key []byte) bool {
		if string(key) != "requests" || !seen.first(0) {
			return false
		}
		reqs := []AnalyzeRequest{}
		ok := d.array(func() bool {
			reqs = append(reqs, AnalyzeRequest{})
			return d.request(&reqs[len(reqs)-1])
		})
		out.Requests = reqs
		return ok
	})
}

func (d *onePass) request(out *AnalyzeRequest) bool {
	var seen fields
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "api_version":
			return seen.first(0) && d.str(&out.APIVersion)
		case "module":
			return seen.first(1) && d.str(&out.Module)
		case "source":
			return seen.first(2) && d.str(&out.Source)
		case "options":
			return seen.first(3) && d.options(&out.Options)
		}
		return false
	})
}

func (d *onePass) options(out *AnalyzeOptions) bool {
	var seen fields
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "mode":
			return seen.first(0) && d.str(&out.Mode)
		case "params":
			return seen.first(1) && d.boolean(&out.Params)
		case "liberal":
			return seen.first(2) && d.boolean(&out.Liberal)
		case "multi_module":
			return seen.first(3) && d.boolean(&out.MultiModule)
		case "libraries":
			if !seen.first(4) {
				return false
			}
			libs := []LibrarySource{}
			ok := d.array(func() bool {
				libs = append(libs, LibrarySource{})
				return d.library(&libs[len(libs)-1])
			})
			out.Libraries = libs
			return ok
		}
		return false
	})
}

func (d *onePass) library(out *LibrarySource) bool {
	var seen fields
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "name":
			return seen.first(0) && d.str(&out.Name)
		case "source":
			return seen.first(1) && d.str(&out.Source)
		}
		return false
	})
}

// ws skips JSON whitespace.
func (d *onePass) ws() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// next skips whitespace and consumes c if it comes next.
func (d *onePass) next(c byte) bool {
	d.ws()
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (d *onePass) end() bool {
	d.ws()
	return d.i == len(d.b)
}

// object reads one object, handing each key to field, which reads the
// value. A key is taken raw: an escaped key matches no name and
// declines.
func (d *onePass) object(field func(key []byte) bool) bool {
	if !d.next('{') {
		return false
	}
	if d.next('}') {
		return true
	}
	for {
		if !d.next('"') {
			return false
		}
		start := d.i
		for d.i < len(d.b) && d.b[d.i] != '"' && d.b[d.i] != '\\' {
			d.i++
		}
		if d.i == len(d.b) || d.b[d.i] != '"' {
			return false
		}
		key := d.b[start:d.i]
		d.i++
		if !d.next(':') || !field(key) {
			return false
		}
		if d.next('}') {
			return true
		}
		if !d.next(',') {
			return false
		}
	}
}

// array reads one array, calling elem for each element.
func (d *onePass) array(elem func() bool) bool {
	if !d.next('[') {
		return false
	}
	if d.next(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if d.next(']') {
			return true
		}
		if !d.next(',') {
			return false
		}
	}
}

func (d *onePass) boolean(out *bool) bool {
	d.ws()
	rest := d.b[d.i:]
	switch {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		*out, d.i = true, d.i+4
	case len(rest) >= 5 && string(rest[:5]) == "false":
		*out, d.i = false, d.i+5
	default:
		return false
	}
	return true
}

// plain marks the bytes a string may hold as they are: printable
// ASCII other than the quote and the backslash.
var plain = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// str reads one string in one pass over its bytes. The closing quote
// is found first (memchr-fast), so the first escape can size the
// output buffer by the string's own raw length, which its decoded form
// never exceeds; the pass then checks every byte and copies the runs
// between escapes. A string without escapes is copied whole.
func (d *onePass) str(out *string) bool {
	if !d.next('"') {
		return false
	}
	end := closingQuote(d.b, d.i)
	if end < 0 {
		return false
	}
	raw := d.b[d.i:end]
	d.i = end + 1
	var sb strings.Builder
	run := 0 // start of the run not yet copied to sb
	for i := 0; i < len(raw); {
		c := raw[i]
		if plain[c] {
			i++
			continue
		}
		switch {
		case c == '\\':
			if sb.Cap() == 0 {
				sb.Grow(len(raw))
			}
			sb.Write(raw[run:i])
			n := unescapeOne(&sb, raw[i:])
			if n == 0 {
				return false
			}
			i += n
			run = i
		case c < 0x20:
			return false
		default:
			r, size := utf8.DecodeRune(raw[i:])
			if r == utf8.RuneError && size == 1 {
				return false
			}
			i += size
		}
	}
	if sb.Cap() == 0 {
		*out = string(raw)
		return true
	}
	sb.Write(raw[run:])
	*out = sb.String()
	return true
}

// closingQuote returns the index of the quote that closes the string
// starting at b[from], or -1: the first quote not escaped by an odd run
// of backslashes.
func closingQuote(b []byte, from int) int {
	for {
		k := bytes.IndexByte(b[from:], '"')
		if k < 0 {
			return -1
		}
		q := from + k
		n := 0
		for q-n-1 >= from && b[q-n-1] == '\\' {
			n++
		}
		if n%2 == 0 {
			return q
		}
		from = q + 1
	}
}

// unescapeOne decodes the escape at the head of s into sb and returns
// its length, or 0 when it is not one the decoder takes.
func unescapeOne(sb *strings.Builder, s []byte) int {
	if len(s) < 2 {
		return 0
	}
	switch c := s[1]; c {
	case '"', '\\', '/':
		sb.WriteByte(c)
	case 'b':
		sb.WriteByte('\b')
	case 'f':
		sb.WriteByte('\f')
	case 'n':
		sb.WriteByte('\n')
	case 'r':
		sb.WriteByte('\r')
	case 't':
		sb.WriteByte('\t')
	case 'u':
		r, ok := hex4(s[2:])
		if !ok || utf8.RuneLen(r) < 0 {
			return 0 // bad hex, or a surrogate half
		}
		sb.WriteRune(r)
		return 6
	default:
		return 0
	}
	return 2
}

// hex4 reads the four hex digits of a \u escape.
func hex4(s []byte) (rune, bool) {
	if len(s) < 4 {
		return 0, false
	}
	var r rune
	for _, c := range s[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}

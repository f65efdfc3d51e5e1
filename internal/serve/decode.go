package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
)

// maxBodyBytes caps every request body the server reads: session
// create, localize, reports and state restore. The largest legitimate
// bodies are a few KB (a 36-node k=5 report is ~2–2.5 KB, a migrated
// session state ~0.5 KB per target), so 4 MiB leaves room for a session
// of thousands of targets while bounding what one request can make a
// backend buffer. A larger body is answered 413 and never read past the
// cap (DESIGN.md §10).
const maxBodyBytes = 4 << 20

// errBodyTooLarge is the 413 cause: the declared or read length passed
// maxBodyBytes.
var errBodyTooLarge = fmt.Errorf("request body exceeds the %d-byte limit", maxBodyBytes)

// wireBuf is a pooled request body plus the fast decoder's scratch.
// Nothing decoded from it may alias it: strings and float slices are
// copied out before it goes back to the pool, because the tracker and
// the Byzantine defense may keep the decoded group past the handler.
type wireBuf struct {
	body   []byte
	floats []float64
	rowEnd []int
	bools  []bool
}

// maxPooledBytes bounds the body capacity a wireBuf may carry back into
// the pool, so one large request does not pin its buffer for good.
const maxPooledBytes = 64 << 10

var wirePool = sync.Pool{New: func() any { return &wireBuf{body: make([]byte, 0, 4096)} }}

func (wb *wireBuf) release() {
	if cap(wb.body) <= maxPooledBytes && cap(wb.floats)*8 <= maxPooledBytes {
		wirePool.Put(wb)
	}
}

// readBody reads r's whole body, at most maxBodyBytes of it, into a
// pooled wireBuf. A declared Content-Length over the cap is refused
// before any byte is read.
func readBody(w http.ResponseWriter, r *http.Request) (*wireBuf, error) {
	if r.ContentLength > maxBodyBytes {
		return nil, errBodyTooLarge
	}
	wb := wirePool.Get().(*wireBuf)
	// A hand-rolled read loop rather than bytes.Buffer.ReadFrom: passing
	// the MaxBytesReader on as an io.Reader would heap-allocate it.
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	b := wb.body[:0]
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			wb.body = b
			return wb, nil
		}
		if err != nil {
			wb.body = b
			wb.release()
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				return nil, errBodyTooLarge
			}
			return nil, err
		}
	}
}

// readWire reads r's body under the cap and decodes it with decode. On
// failure it writes the response itself — 413 for an oversized body,
// 400 "serve: bad <what>: …" otherwise — and reports false.
func readWire(w http.ResponseWriter, r *http.Request, what string, decode func(*wireBuf) error) bool {
	wb, err := readBody(w, r)
	if err == nil {
		err = decode(wb)
		wb.release()
	}
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, errBodyTooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, fmt.Errorf("serve: bad %s: %w", what, err))
		return false
	}
	return true
}

// decodeStrict is the cold-path decoder (session configs, states):
// encoding/json with unknown fields rejected.
func decodeStrict(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// decodeReport decodes a reports body. A canonical body (the grammar in
// fastReport) is decoded in one pass; any other input — and so every
// error — is decoded by encoding/json from the same bytes, which keeps
// encoding/json the definition of the wire format.
func decodeReport(wb *wireBuf, rw *ReportWire) error {
	if wb.fastReport(rw) {
		return nil
	}
	*rw = ReportWire{}
	return json.NewDecoder(bytes.NewReader(wb.body)).Decode(rw)
}

// decodeLocalize is decodeReport for localize bodies.
func decodeLocalize(wb *wireBuf, lw *LocalizeWire) error {
	if wb.fastLocalize(lw) {
		return nil
	}
	*lw = LocalizeWire{}
	return json.NewDecoder(bytes.NewReader(wb.body)).Decode(lw)
}

var (
	reportKeys   = []string{"target", "rss", "reported", "epsilon"}
	localizeKeys = []string{"target", "x", "y"}
)

// fastReport decodes the canonical ReportWire shape: a JSON object with
// each of the exact-case keys target, rss, reported, epsilon at most
// once; an escape-free printable-ASCII target; non-empty rss rows and
// reported list of RFC 8259 numbers and true/false; a numeric epsilon.
// Bytes after the object are ignored, as json.Decoder.Decode ignores
// them. It reports false — leaving rw to be overwritten — on anything
// else, including inputs encoding/json accepts.
func (wb *wireBuf) fastReport(rw *ReportWire) bool {
	l := lexer{b: wb.body}
	return l.object(reportKeys, func(key int) bool {
		switch key {
		case 0:
			s, ok := l.str()
			rw.Target = string(s)
			return ok
		case 1:
			var ok bool
			rw.RSS, ok = l.matrix(wb)
			return ok
		case 2:
			var ok bool
			rw.Reported, ok = l.bools(wb)
			return ok
		default:
			eps, ok := l.number()
			if ok {
				rw.Epsilon = &eps
			}
			return ok
		}
	})
}

// fastLocalize is fastReport for LocalizeWire: keys target, x, y.
func (wb *wireBuf) fastLocalize(lw *LocalizeWire) bool {
	l := lexer{b: wb.body}
	return l.object(localizeKeys, func(key int) bool {
		var ok bool
		switch key {
		case 0:
			var s []byte
			s, ok = l.str()
			lw.Target = string(s)
		case 1:
			lw.X, ok = l.number()
		default:
			lw.Y, ok = l.number()
		}
		return ok
	})
}

// lexer scans the fast path's JSON subset. A false result means "not
// canonical", never "invalid": the caller hands such input to
// encoding/json.
type lexer struct {
	b []byte
	i int
}

// peek skips JSON whitespace and returns the next byte, 0 at the end.
func (l *lexer) peek() byte {
	for ; l.i < len(l.b); l.i++ {
		switch c := l.b[l.i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// eat consumes c if it is the next non-whitespace byte.
func (l *lexer) eat(c byte) bool {
	if l.peek() != c {
		return false
	}
	l.i++
	return true
}

// object walks a flat object whose keys are each one of keys (exact
// case, at most once), calling value with a key's index to consume its
// value.
func (l *lexer) object(keys []string, value func(key int) bool) bool {
	if !l.eat('{') {
		return false
	}
	if l.eat('}') {
		return true
	}
	var seen uint
	for {
		name, ok := l.str()
		if !ok || !l.eat(':') {
			return false
		}
		k := 0
		for k < len(keys) && keys[k] != string(name) {
			k++
		}
		if k == len(keys) || seen&(1<<k) != 0 || !value(k) {
			return false
		}
		seen |= 1 << k
		if !l.eat(',') {
			return l.eat('}')
		}
	}
}

// str consumes an escape-free printable-ASCII string and returns its
// contents, aliasing the body.
func (l *lexer) str() ([]byte, bool) {
	if !l.eat('"') {
		return nil, false
	}
	for start := l.i; l.i < len(l.b); l.i++ {
		switch c := l.b[l.i]; {
		case c == '"':
			l.i++
			return l.b[start : l.i-1], true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// number consumes one RFC 8259 number literal and converts it with
// strconv.ParseFloat(lit, 64) — the call encoding/json makes for a
// float64 field, so the bits are identical. Out-of-range literals
// report false, leaving the error to encoding/json.
func (l *lexer) number() (float64, bool) {
	l.peek()
	b, start := l.b, l.i
	if l.i < len(b) && b[l.i] == '-' {
		l.i++
	}
	switch {
	case l.i < len(b) && b[l.i] == '0':
		l.i++
	case !l.digits():
		return 0, false
	}
	if l.i < len(b) && b[l.i] == '.' {
		l.i++
		if !l.digits() {
			return 0, false
		}
	}
	if l.i < len(b) && (b[l.i] == 'e' || b[l.i] == 'E') {
		l.i++
		if l.i < len(b) && (b[l.i] == '+' || b[l.i] == '-') {
			l.i++
		}
		if !l.digits() {
			return 0, false
		}
	}
	f, err := strconv.ParseFloat(string(b[start:l.i]), 64)
	return f, err == nil
}

// digits consumes one or more decimal digits.
func (l *lexer) digits() bool {
	start := l.i
	for l.i < len(l.b) && '0' <= l.b[l.i] && l.b[l.i] <= '9' {
		l.i++
	}
	return l.i > start
}

// matrix consumes a non-empty array of non-empty number arrays. Every
// row is a capacity-capped window of one freshly allocated backing
// array, so appending to a row cannot clobber the next.
func (l *lexer) matrix(wb *wireBuf) ([][]float64, bool) {
	if !l.eat('[') {
		return nil, false
	}
	fs, ends := wb.floats[:0], wb.rowEnd[:0]
	for {
		if !l.eat('[') {
			return nil, false
		}
		for {
			f, ok := l.number()
			if !ok {
				return nil, false
			}
			fs = append(fs, f)
			if !l.eat(',') {
				break
			}
		}
		if !l.eat(']') {
			return nil, false
		}
		ends = append(ends, len(fs))
		if !l.eat(',') {
			break
		}
	}
	wb.floats, wb.rowEnd = fs, ends
	if !l.eat(']') {
		return nil, false
	}
	back := append([]float64(nil), fs...)
	rows := make([][]float64, len(ends))
	start := 0
	for r, end := range ends {
		rows[r] = back[start:end:end]
		start = end
	}
	return rows, true
}

// bools consumes a non-empty array of true/false literals.
func (l *lexer) bools(wb *wireBuf) ([]bool, bool) {
	if !l.eat('[') {
		return nil, false
	}
	bs := wb.bools[:0]
	for {
		switch l.peek() {
		case 't':
			if !bytes.HasPrefix(l.b[l.i:], []byte("true")) {
				return nil, false
			}
			bs, l.i = append(bs, true), l.i+4
		case 'f':
			if !bytes.HasPrefix(l.b[l.i:], []byte("false")) {
				return nil, false
			}
			bs, l.i = append(bs, false), l.i+5
		default:
			return nil, false
		}
		if !l.eat(',') {
			break
		}
	}
	wb.bools = bs
	if !l.eat(']') {
		return nil, false
	}
	return append([]bool(nil), bs...), true
}

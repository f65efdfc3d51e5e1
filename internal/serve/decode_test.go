package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"fttt/internal/geom"
	"fttt/internal/randx"
	"fttt/internal/sampling"
)

// canonicalReports returns report bodies shaped like the ingest-shared
// benchmark's: a 36-node grid, k=5, 10% report loss, marshalled by
// encoding/json.
func canonicalReports(tb testing.TB) [][]byte {
	tb.Helper()
	cc, err := SessionConfig{GridNodes: 36, CellSize: 2}.CoreConfig()
	if err != nil {
		tb.Fatal(err)
	}
	smp := &sampling.Sampler{Model: cc.Model, Nodes: cc.Nodes, Range: cc.Range, ReportLoss: 0.1, Epsilon: cc.Epsilon}
	rng := randx.New(3)
	var out [][]byte
	for i := 0; i < 4; i++ {
		g := smp.Sample(geom.Pt(rng.Uniform(5, 95), rng.Uniform(5, 95)), cc.SamplingTimes, rng.SplitN("g", i))
		rw := ReportWire{Target: fmt.Sprintf("t%d", i), RSS: g.RSS, Reported: g.Reported}
		if i%2 == 1 {
			eps := 0.5 * float64(i)
			rw.Epsilon = &eps
		}
		b, err := json.Marshal(rw)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// spaced puts whitespace between every token of a compact JSON body.
func spaced(b []byte) []byte {
	var out []byte
	inStr := false
	for i, c := range b {
		out = append(out, c)
		if c == '"' && (i == 0 || b[i-1] != '\\') {
			inStr = !inStr
		}
		if !inStr && strings.IndexByte("{}[],:\"", c) >= 0 {
			out = append(out, " \t\r\n"[i%4])
		}
	}
	return out
}

// reportFallbacks are report bodies outside the fast path's grammar —
// each must be decoded (or rejected) by encoding/json.
var reportFallbacks = []string{
	`{"target":"t","rss":[[1,2]],"reported":[true,false],"extra":1}`,
	`{"target":"a","target":"b","rss":[[1]],"reported":[true]}`,
	`{"target":"t","rss":[[1]],"rss":[[2,3]],"reported":[true]}`,
	`{"Target":"t","rss":[[1]],"reported":[true]}`,
	`{"target":"t","RSS":[[1]],"reported":[true]}`,
	`{"target":"t\u0041","rss":[[1]],"reported":[true]}`,
	`{"t\u0061rget":"t","rss":[[1]],"reported":[true]}`,
	`{"target":"tü","rss":[[1]],"reported":[true]}`,
	"{\"target\":\"t\xff\",\"rss\":[[1]],\"reported\":[true]}",
	`{"target":"t","rss":null,"reported":[true]}`,
	`{"target":"t","rss":[null],"reported":[true]}`,
	`{"target":"t","rss":[[1]],"reported":[true],"epsilon":null}`,
	`{"target":null,"rss":[[1]],"reported":[true]}`,
	`null`,
	`{"target":"t","rss":[],"reported":[]}`,
	`{"target":"t","rss":[[]],"reported":[true]}`,
	`{"target":"t","rss":[[1e400]],"reported":[true]}`,
	`{"target":"t","rss":[[-1e400]],"reported":[true]}`,
	`{"target":"t","rss":[[1]],"reported":[true],"epsilon":1e400}`,
	`{"target":"t","rss":[[01]],"reported":[true]}`,
	`{"target":"t","rss":[[+1]],"reported":[true]}`,
	`{"target":"t","rss":[[.5]],"reported":[true]}`,
	`{"target":"t","rss":[[1.]],"reported":[true]}`,
	`{"target":"t","rss":[[1e]],"reported":[true]}`,
	`{"target":"t","rss":[[-]],"reported":[true]}`,
	`{"target":"t","rss":[[NaN]],"reported":[true]}`,
	`{"target":"t","rss":[["1"]],"reported":[true]}`,
	`{"target":5,"rss":[[1]],"reported":[true]}`,
	`{"target":"t","rss":[[1]],"reported":[1]}`,
	`{"target":"t","rss":[[1]],"reported":[tru]}`,
	`{"target":"t","rss":[[1]],"reported":[true],}`,
	`{"target":"t","rss":[[1],],"reported":[true]}`,
	`{"target":"t","rss":[[1]],"reported":[true]`,
	`{"target":"t"`,
	`{"target":"t","rss":[[1 2]],"reported":[true]}`,
	`[1,2]`,
	``,
	`   `,
	"\ufeff{\"target\":\"t\"}",
}

// reportAccepted are bodies inside the fast path's grammar (beyond the
// canonical marshalled shape).
var reportAccepted = []string{
	`{}`,
	`{"target":""}`,
	`{"target":"t","rss":[[-0,0,-0.0]],"reported":[false,true,true]}`,
	`{"target":"t","rss":[[1e-400,4.9e-324,1.7976931348623157e308]],"reported":[true,true,true]}`,
	`{"target":"t","rss":[[1E+5,2e-3,-3.25E2]],"reported":[true,false,true],"epsilon":0.25}`,
	`{"target":"t","rss":[[123456789012345678901234567890123456789]],"reported":[true]}`,
	`{"target":"t","rss":[[1,2],[3]],"reported":[true,true]}`,
	`{"target":"t","rss":[[1]],"reported":[true]}trailing garbage`,
	`{"target":"t","rss":[[1]],"reported":[true]}}`,
	` {"reported":[true],"epsilon":-0,"rss":[[1]],"target":"~ !#$%&'()*+,-./:;<=>?@[]^_{|}"} `,
}

// localizeFallbacks and localizeAccepted are the LocalizeWire analogues.
var (
	localizeFallbacks = []string{
		`{"target":"t","x":1,"y":2,"z":3}`,
		`{"target":"t","x":1,"x":2,"y":2}`,
		`{"Target":"t","x":1,"y":2}`,
		`{"target":"t","X":1,"y":2}`,
		`{"target":"t\n","x":1,"y":2}`,
		`{"target":"t","x":null,"y":2}`,
		`{"target":"t","x":1e400,"y":2}`,
		`{"target":"t","x":"1","y":2}`,
		`{"target":"t","x":00,"y":2}`,
		`{"target":"t","x":1,"y":2,}`,
		`{"target":"t","x":1,"y":2`,
		`{"target":["t"],"x":1,"y":2}`,
		`""`,
		``,
	}
	localizeAccepted = []string{
		`{"target":"t","x":30.5,"y":-0}`,
		`{"y":1e-400,"x":4.9e-324,"target":"a b"}`,
		`{"target":"t","x":1,"y":2} {"target":"u"}`,
		"\t{ \"target\" :\n\"t\" , \"x\" : 1 ,\r\"y\" : 2 }\n",
		`{}`,
	}
)

// sameFloat reports bitwise equality, so -0 and 0 differ.
func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameReportBits(a, b ReportWire) bool {
	if (a.Epsilon == nil) != (b.Epsilon == nil) || a.Epsilon != nil && !sameFloat(*a.Epsilon, *b.Epsilon) {
		return false
	}
	for i := range a.RSS {
		for j := range a.RSS[i] {
			if !sameFloat(a.RSS[i][j], b.RSS[i][j]) {
				return false
			}
		}
	}
	return true
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// checkReport decodes b with the server's decoder and with
// json.Decoder.Decode and fails on any difference: error text, value,
// float bits, or the group ReportWire.Group builds from it.
func checkReport(t *testing.T, b []byte) {
	t.Helper()
	var want ReportWire
	wantErr := json.NewDecoder(bytes.NewReader(b)).Decode(&want)
	wb := wirePool.Get().(*wireBuf)
	wb.body = append(wb.body[:0], b...)
	var got ReportWire
	gotErr := decodeReport(wb, &got)
	wb.release()
	if errText(gotErr) != errText(wantErr) {
		t.Fatalf("%q: error %q, encoding/json %q", b, errText(gotErr), errText(wantErr))
	}
	if !reflect.DeepEqual(got, want) || !sameReportBits(got, want) {
		t.Fatalf("%q: decoded %+v, encoding/json %+v", b, got, want)
	}
	n := len(want.Reported)
	gg, gerr := got.Group(n, 1)
	wg, werr := want.Group(n, 1)
	if errText(gerr) != errText(werr) || !reflect.DeepEqual(gg, wg) {
		t.Fatalf("%q: Group %+v (%v), encoding/json %+v (%v)", b, gg, gerr, wg, werr)
	}
}

func checkLocalize(t *testing.T, b []byte) {
	t.Helper()
	var want LocalizeWire
	wantErr := json.NewDecoder(bytes.NewReader(b)).Decode(&want)
	wb := wirePool.Get().(*wireBuf)
	wb.body = append(wb.body[:0], b...)
	var got LocalizeWire
	gotErr := decodeLocalize(wb, &got)
	wb.release()
	if errText(gotErr) != errText(wantErr) {
		t.Fatalf("%q: error %q, encoding/json %q", b, errText(gotErr), errText(wantErr))
	}
	if got != want || !sameFloat(got.X, want.X) || !sameFloat(got.Y, want.Y) {
		t.Fatalf("%q: decoded %+v, encoding/json %+v", b, got, want)
	}
}

func FuzzDecodeReport(f *testing.F) {
	for _, b := range canonicalReports(f) {
		f.Add(b)
		f.Add(spaced(b))
		f.Add(append(b[:len(b):len(b)], "garbage"...))
	}
	for _, s := range reportFallbacks {
		f.Add([]byte(s))
	}
	for _, s := range reportAccepted {
		f.Add([]byte(s))
	}
	f.Fuzz(checkReport)
}

func FuzzDecodeLocalize(f *testing.F) {
	for _, s := range localizeFallbacks {
		f.Add([]byte(s))
	}
	for _, s := range localizeAccepted {
		f.Add([]byte(s))
		f.Add(spaced([]byte(s)))
	}
	b, _ := json.Marshal(LocalizeWire{Target: "t0", X: 31.268745398217496, Y: 77.0921})
	f.Add(b)
	f.Fuzz(checkLocalize)
}

// TestFastPathCoverage pins which bodies the fast path decodes itself:
// the differential fuzzers prove the result equals encoding/json's
// either way, so this is what keeps the fast path from quietly
// degenerating into "always fall back".
func TestFastPathCoverage(t *testing.T) {
	report := func(b []byte) bool {
		var rw ReportWire
		return (&wireBuf{body: b}).fastReport(&rw)
	}
	localize := func(b []byte) bool {
		var lw LocalizeWire
		return (&wireBuf{body: b}).fastLocalize(&lw)
	}
	for _, b := range canonicalReports(t) {
		for _, v := range [][]byte{b, spaced(b)} {
			if !report(v) {
				t.Errorf("canonical report took the fallback: %.80q…", v)
			}
		}
	}
	for _, c := range []struct {
		fast   func([]byte) bool
		bodies []string
		want   bool
	}{
		{report, reportAccepted, true},
		{report, reportFallbacks, false},
		{localize, localizeAccepted, true},
		{localize, localizeFallbacks, false},
	} {
		for _, s := range c.bodies {
			if got := c.fast([]byte(s)); got != c.want {
				t.Errorf("fast path on %q = %v, want %v", s, got, c.want)
			}
		}
	}
}

// countingReader counts the bytes a handler pulled from the body.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestBodyCap covers the request-body cap on every route that reads a
// body: one byte over is 413 with the usual error body, whether the
// length is declared or streamed, and never read past the cap; a body
// of exactly maxBodyBytes (valid JSON behind leading whitespace, so
// every decoder walks all of it) is served.
func TestBodyCap(t *testing.T) {
	srv := New(Config{})
	defer srv.Drain(context.Background())
	sess, err := srv.CreateSession(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	// The state route restores a closed session from its export.
	gone, err := srv.CreateSession(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	st, err := gone.Export()
	if err != nil {
		t.Fatal(err)
	}
	srv.CloseSession(gone.ID())
	state, _ := json.Marshal(st)
	create, _ := json.Marshal(testConfig(3))
	base := "/v1/sessions/" + sess.ID()
	routes := []struct{ method, path, body string }{
		{http.MethodPost, "/v1/sessions", string(create)},
		{http.MethodPost, base + "/localize", `{"target":"t","x":30,"y":30}`},
		{http.MethodPost, base + "/reports",
			`{"target":"r","rss":[[-60,-61,-62,-63,-64,-65,-66,-67,-68]],"reported":[true,true,true,true,true,true,true,true,true]}`},
		{http.MethodPut, "/v1/sessions/" + gone.ID() + "/state", string(state)},
	}
	for _, rt := range routes {
		over := strings.Repeat(" ", maxBodyBytes+1-len(rt.body)) + rt.body
		for _, declared := range []bool{true, false} {
			cr := &countingReader{r: strings.NewReader(over)}
			req := httptest.NewRequest(rt.method, rt.path, cr)
			if declared {
				req.ContentLength = int64(len(over))
			} else {
				req.ContentLength = -1
			}
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			if rec.Code != http.StatusRequestEntityTooLarge {
				t.Errorf("%s %s (declared %v) over the cap: status %d, want 413", rt.method, rt.path, declared, rec.Code)
			}
			var ew errorWire
			if err := json.Unmarshal(rec.Body.Bytes(), &ew); err != nil || !strings.Contains(ew.Error, "byte limit") {
				t.Errorf("%s %s: 413 body %q", rt.method, rt.path, rec.Body)
			}
			// A declared length over the cap is refused unread; a streamed
			// body is read one byte past the cap, which is how
			// http.MaxBytesReader detects the overflow.
			limit := maxBodyBytes + 1
			if declared {
				limit = 0
			}
			if cr.n > limit {
				t.Errorf("%s %s (declared %v): read %d body bytes, cap %d", rt.method, rt.path, declared, cr.n, maxBodyBytes)
			}
		}
	}
	for _, rt := range routes {
		at := strings.Repeat(" ", maxBodyBytes-len(rt.body)) + rt.body
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(rt.method, rt.path, strings.NewReader(at)))
		if rec.Code != http.StatusOK && rec.Code != http.StatusCreated {
			t.Errorf("%s %s at the cap: status %d: %s", rt.method, rt.path, rec.Code, rec.Body)
		}
	}
}

// BenchmarkDecodeReport prices one report-body decode: the server's
// decoder against the json.Decoder.Decode call it replaced.
func BenchmarkDecodeReport(b *testing.B) {
	body := canonicalReports(b)[0]
	b.Run("fast", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		wb := &wireBuf{body: body}
		for i := 0; i < b.N; i++ {
			var rw ReportWire
			if err := decodeReport(wb, &rw); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			var rw ReportWire
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&rw); err != nil {
				b.Fatal(err)
			}
		}
	})
}

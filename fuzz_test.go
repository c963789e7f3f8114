// Fuzz targets for the engine's parsing and matching hot paths. Run the
// seed corpus as part of `go test`; fuzz longer with e.g.
//
//	go test -fuzz FuzzTokenizeMatches -fuzztime 30s
package clx_test

import (
	"io"
	"strings"
	"testing"

	clx "clx"
	"clx/internal/cluster"
	"clx/internal/pattern"
	"clx/internal/stream"
)

// FuzzTokenizeMatches checks the central profiling invariant on arbitrary
// input: every string matches its own derived pattern, the pattern's
// compact rendering parses back, and the NL rendering parses back — all
// three agreeing on the match.
func FuzzTokenizeMatches(f *testing.F) {
	for _, seed := range []string{
		"", "(734) 645-8397", "Bob123@gmail.com", "N/A", "Dr. Eran Yahav",
		"[CPT-115]", "a_b-c d", "++--", "   ", "é漢字", "\x00\xff",
		"12/34/5678", "https://x.y/z",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p := pattern.FromString(s)
		if !p.Matches(s) {
			t.Fatalf("pattern %s does not match its own source %q", p, s)
		}
		rt, err := pattern.Parse(p.String())
		if err != nil {
			t.Fatalf("compact rendering of %q does not parse: %v", s, err)
		}
		if !rt.Equal(p) {
			t.Fatalf("compact round trip changed pattern: %s vs %s", rt, p)
		}
		nl, err := pattern.ParseNL(p.NLRegex())
		if err != nil {
			t.Fatalf("NL rendering %q of %q does not parse: %v", p.NLRegex(), s, err)
		}
		if !nl.Matches(s) {
			t.Fatalf("NL round trip of %q does not match it (pattern %s)", s, nl)
		}
	})
}

// FuzzClusterPartition checks that profiling always partitions arbitrary
// row multisets and that generalization preserves membership.
func FuzzClusterPartition(f *testing.F) {
	f.Add("a\nb\nc")
	f.Add("(734) 645-8397\n734.236.3466\n\nN/A")
	f.Add("x1\nx1\nx1\nx2")
	f.Fuzz(func(t *testing.T, blob string) {
		var data []string
		start := 0
		for i := 0; i <= len(blob); i++ {
			if i == len(blob) || blob[i] == '\n' {
				data = append(data, blob[start:i])
				start = i + 1
			}
		}
		if len(data) > 64 {
			data = data[:64]
		}
		h := cluster.Profile(data, cluster.DefaultOptions())
		seen := make(map[int]bool)
		for _, c := range h.Clusters {
			for _, ri := range c.Rows {
				if seen[ri] {
					t.Fatalf("row %d in two clusters", ri)
				}
				seen[ri] = true
				if !c.Pattern.Matches(data[ri]) {
					t.Fatalf("cluster pattern %s does not match row %q", c.Pattern, data[ri])
				}
			}
		}
		if len(seen) != len(data) {
			t.Fatalf("clusters cover %d rows, want %d", len(seen), len(data))
		}
		for _, root := range h.Roots() {
			for _, leaf := range root.Leaves {
				for _, ri := range leaf.Rows {
					if !root.Pattern.Matches(data[ri]) {
						t.Fatalf("root %s does not cover row %q", root.Pattern, data[ri])
					}
				}
			}
		}
	})
}

// FuzzSynthesisSoundness checks Theorem A.1 end to end on arbitrary pairs:
// whatever program is synthesized, applying it to rows it claims to cover
// yields strings matching the target.
func FuzzSynthesisSoundness(f *testing.F) {
	f.Add("(734) 645-8397\n734.236.3466", "<D>3'-'<D>3'-'<D>4")
	f.Add("CPT115\n[CPT-00340", "'['<U>+'-'<D>+']'")
	f.Add("a b\nc d", "<L>','<L>")
	f.Fuzz(func(t *testing.T, blob, targetSpec string) {
		target, err := pattern.Parse(targetSpec)
		if err != nil || target.IsEmpty() {
			t.Skip()
		}
		var data []string
		start := 0
		for i := 0; i <= len(blob) && len(data) < 32; i++ {
			if i == len(blob) || blob[i] == '\n' {
				data = append(data, blob[start:i])
				start = i + 1
			}
		}
		tr, err := clx.NewSession(data).Label(target)
		if err != nil {
			t.Fatal(err)
		}
		out, flagged := tr.Run()
		flaggedSet := make(map[int]bool)
		for _, i := range flagged {
			flaggedSet[i] = true
		}
		for i := range data {
			if flaggedSet[i] {
				if out[i] != data[i] {
					t.Fatalf("flagged row %q was modified to %q", data[i], out[i])
				}
				continue
			}
			if !target.Matches(out[i]) {
				t.Fatalf("transformed row %q -> %q does not match target %s",
					data[i], out[i], target)
			}
		}
	})
}

// FuzzNLParse: the display-syntax parser never panics and, when it accepts
// an input, produces a pattern whose own NL rendering parses to an
// equivalent pattern (idempotent round trip).
func FuzzNLParse(f *testing.F) {
	for _, seed := range []string{
		"/^{digit}{3}-{digit}{4}$/", "{upper}{lower}+, {upper}.",
		"[{upper}+-{digit}+]", "{alnum}+@{alnum}+", `\{x\}`, "{digit}{lower}",
		"", "///", "{digit}{999}",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := pattern.ParseNL(s)
		if err != nil {
			return
		}
		q, err := pattern.ParseNL(p.NLRegex())
		if err != nil {
			t.Fatalf("re-parse of %q (from %q) failed: %v", p.NLRegex(), s, err)
		}
		// Adjacent raw bytes can merge into one multi-byte literal on
		// re-parse (semantically identical), so compare the flattened
		// forms: merged literal bytes interleaved with base tokens.
		if flatten(q) != flatten(p) {
			t.Fatalf("NL round trip changed pattern: %s vs %s (input %q)", q, p, s)
		}
	})
}

// flatten canonicalizes a pattern for semantic comparison: adjacent fixed
// literal tokens merge, base tokens stay as (class, quant) markers.
func flatten(p pattern.Pattern) string {
	out := ""
	lit := ""
	flush := func() {
		if lit != "" {
			out += "L" + lit + "\x00"
			lit = ""
		}
	}
	for _, tk := range p.Tokens() {
		if tk.IsLiteral() && tk.Quant >= 1 {
			lit += tk.Expand()
			continue
		}
		flush()
		out += tk.String() + "\x00"
	}
	flush()
	return out
}

// FuzzCompactParse: Parse never panics and accepted inputs round-trip
// through String.
func FuzzCompactParse(f *testing.F) {
	for _, seed := range []string{
		"<D>3'-'<D>4", "'['<U>+'-'<D>+']'", "<AN>+", `'\''`, `'\\'`,
		"<D>", "''", "<D>0", "<D>99999",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := pattern.Parse(s)
		if err != nil {
			return
		}
		q, err := pattern.Parse(p.String())
		if err != nil {
			t.Fatalf("re-parse of %q (from %q) failed: %v", p.String(), s, err)
		}
		if !q.Equal(p) {
			t.Fatalf("compact round trip changed pattern: %s vs %s", q, p)
		}
	})
}

// chunkedReader returns at most k bytes per Read, forcing records — and
// multi-byte UTF-8 sequences — to split across arbitrary read boundaries.
type chunkedReader struct {
	s string
	i int
	k int
}

func (r *chunkedReader) Read(p []byte) (int, error) {
	if r.i >= len(r.s) {
		return 0, io.EOF
	}
	n := r.k
	if n > len(p) {
		n = len(p)
	}
	if r.i+n > len(r.s) {
		n = len(r.s) - r.i
	}
	copy(p, r.s[r.i:r.i+n])
	r.i += n
	return n, nil
}

// FuzzStreamReader throws arbitrary bytes at the three streaming input
// readers under adversarial read boundaries: no panic ever; the line
// reader agrees with a reference in-memory split (so CRLF/LF mixes, empty
// records and UTF-8 cut mid-rune reassemble identically); NDJSON input the
// reader accepts survives a write∘read round trip.
func FuzzStreamReader(f *testing.F) {
	for _, seed := range []string{
		"", "\n", "\r\n", "a\nb\nc", "a\r\nb\r\n", "last without newline",
		"café 12\n日本語123\n", "mixed\r\nendings\nhere\r\n", "\n\n\n",
		"\"json string\"\n\"with\\nescape\"\n", "not json\n",
		"a,b,c\n\"quoted,comma\",x,y\n", "\"unterminated\nquote", "\xff\xfe\n\x80",
	} {
		f.Add(seed, uint8(1), uint8(1))
		f.Add(seed, uint8(3), uint8(4))
	}
	f.Fuzz(func(t *testing.T, blob string, k, max uint8) {
		readSize := int(k)%16 + 1
		batch := int(max)%8 + 1
		drain := func(r stream.Reader) ([]string, error) {
			var out []string
			for {
				vals, err := r.Next(batch)
				out = append(out, vals...)
				if err != nil {
					return out, err
				}
				if len(out) > len(blob)+8 {
					t.Fatalf("reader emits more values than the input could hold")
				}
			}
		}

		// Line reader: differential against a reference split, for every
		// read-boundary placement.
		wantLines := refLines(blob)
		gotLines, err := drain(stream.NewLineReader(&chunkedReader{s: blob, k: readSize}))
		if err != io.EOF {
			t.Fatalf("line reader error on arbitrary input: %v", err)
		}
		if len(gotLines) != len(wantLines) {
			t.Fatalf("readSize=%d: %d lines, want %d (%q)", readSize, len(gotLines), len(wantLines), blob)
		}
		for i := range wantLines {
			if gotLines[i] != wantLines[i] {
				t.Fatalf("readSize=%d line %d: %q, want %q", readSize, i, gotLines[i], wantLines[i])
			}
		}

		// NDJSON reader: never panics; accepted input round-trips through
		// the encoder byte-compatibly.
		vals, err := drain(stream.NewNDJSONReader(&chunkedReader{s: blob, k: readSize}))
		if err == io.EOF {
			var buf []byte
			for _, v := range vals {
				buf = stream.NDJSONEncoder{}.AppendValue(buf, []byte(v))
			}
			again, err := drain(stream.NewNDJSONReader(&chunkedReader{s: string(buf), k: readSize}))
			if err != io.EOF {
				t.Fatalf("re-read of encoded values failed: %v", err)
			}
			if len(again) != len(vals) {
				t.Fatalf("round trip: %d values, want %d", len(again), len(vals))
			}
			for i := range vals {
				if again[i] != vals[i] {
					t.Fatalf("round trip value %d: %q, want %q", i, again[i], vals[i])
				}
			}
		}

		// CSV reader: malformed quoting and ragged rows must error, never
		// panic, for any column index.
		for _, col := range []int{0, 1} {
			_, _ = drain(stream.NewCSVReader(&chunkedReader{s: blob, k: readSize}, col, col == 1))
		}
	})
}

// refLines is the in-memory reference the streaming line reader must
// reproduce: values separated by '\n', each stripped of one trailing
// '\r', the final value kept when the input does not end in a newline.
func refLines(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, "\n")
	if parts[len(parts)-1] == "" {
		parts = parts[:len(parts)-1]
	}
	for i := range parts {
		parts[i] = strings.TrimSuffix(parts[i], "\r")
	}
	return parts
}

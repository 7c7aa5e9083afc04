package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"repro/rcj"
)

// TestAppendJSONFloatMatchesEncodingJSON pins byte-exact parity with
// encoding/json's float64 encoder across the notation boundary cases and a
// fuzz sweep: the pooled NDJSON path must be indistinguishable from the
// json.Encoder it replaced.
func TestAppendJSONFloatMatchesEncodingJSON(t *testing.T) {
	cases := []float64{
		0, 1, -1, 0.5, -0.5, 1.0 / 3.0, 123.456, -987.654321,
		1e-6, 9.999e-7, 1e-7, -1e-7, 5e-324, -5e-324, // 'e' side of the small cutoff
		1e21, 9.999e20, 1e22, -1e22, math.MaxFloat64, // 'e' side of the large cutoff
		1e-9, 2.5e-15, -3.25e-300, 7e+250,
		math.Pi, math.Sqrt2, math.SmallestNonzeroFloat64,
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 5000; i++ {
		f := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
		cases = append(cases, f)
	}
	for _, f := range cases {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatalf("%g: %v", f, err)
		}
		got := appendJSONFloat(nil, f)
		if string(got) != string(want) {
			t.Fatalf("appendJSONFloat(%g) = %q, encoding/json says %q", f, got, want)
		}
	}
}

// TestAppendPairNDJSONMatchesEncoder: a full line from the pooled appender
// equals the json.Encoder line it replaced, byte for byte.
func TestAppendPairNDJSONMatchesEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		pr := rcj.Pair{
			P:      rcj.Point{ID: rng.Int63() - rng.Int63()},
			Q:      rcj.Point{ID: rng.Int63n(1 << 40)},
			Center: rcj.Point{X: rng.NormFloat64() * 1e4, Y: rng.NormFloat64() * 1e-8},
			Radius: math.Abs(rng.NormFloat64()) * math.Pow(10, float64(rng.Intn(40)-20)),
		}
		want, err := json.Marshal(PairLine{PID: pr.P.ID, QID: pr.Q.ID, CX: pr.Center.X, CY: pr.Center.Y, Radius: pr.Radius})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n') // json.Encoder terminates each value with \n
		if got := AppendPairNDJSON(nil, pr); string(got) != string(want) {
			t.Fatalf("pair %d:\n got %q\nwant %q", i, got, want)
		}
	}
}

// edgePairs are the rows whose numbers sit where the encoder changes
// notation or range: ±0, subnormals, each side of the 1e-6 and 1e21 format
// switches, ±MaxFloat64, and the extreme int64 ids.
func edgePairs() []rcj.Pair {
	floats := []float64{
		0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072009e-308, // subnormals
		1e-6, math.Nextafter(1e-6, 0), -1e-6, -math.Nextafter(1e-6, 0),
		1e21, math.Nextafter(1e21, 0), -1e21, -math.Nextafter(1e21, 0),
		math.MaxFloat64, -math.MaxFloat64, 1e-9, 123.456, -0.5,
	}
	ids := []int64{math.MinInt64, math.MaxInt64, 0, -1, 1}
	var prs []rcj.Pair
	for i, f := range floats {
		prs = append(prs, rcj.Pair{
			P:      rcj.Point{ID: ids[i%len(ids)]},
			Q:      rcj.Point{ID: ids[(i+1)%len(ids)]},
			Center: rcj.Point{X: f, Y: floats[(i+1)%len(floats)]},
			Radius: floats[(i+2)%len(floats)],
		})
	}
	return prs
}

// samePairLine compares two rows bit for bit (so -0 differs from 0).
func samePairLine(a, b PairLine) bool {
	return a.PID == b.PID && a.QID == b.QID &&
		math.Float64bits(a.CX) == math.Float64bits(b.CX) &&
		math.Float64bits(a.CY) == math.Float64bits(b.CY) &&
		math.Float64bits(a.Radius) == math.Float64bits(b.Radius)
}

// TestParsePairNDJSONRoundTrip: every row the encoder writes parses back
// bit for bit, with or without its newline, and without allocating.
func TestParsePairNDJSONRoundTrip(t *testing.T) {
	prs := edgePairs()
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 5000; i++ {
		prs = append(prs, rcj.Pair{
			P:      rcj.Point{ID: rng.Int63() - rng.Int63()},
			Q:      rcj.Point{ID: rng.Int63n(1 << 40)},
			Center: rcj.Point{X: rng.NormFloat64() * math.Pow(10, float64(rng.Intn(600)-300)), Y: rng.Float64() * 1e4},
			Radius: math.Abs(rng.NormFloat64()) * math.Pow(10, float64(rng.Intn(60)-30)),
		})
	}
	for _, pr := range prs {
		line := AppendPairNDJSON(nil, pr)
		want := PairLine{PID: pr.P.ID, QID: pr.Q.ID, CX: pr.Center.X, CY: pr.Center.Y, Radius: pr.Radius}
		for _, in := range [][]byte{line, line[:len(line)-1]} {
			got, err := ParsePairNDJSON(in)
			if err != nil || !samePairLine(got, want) {
				t.Fatalf("ParsePairNDJSON(%q) = %+v, %v; want %+v", in, got, err, want)
			}
		}
	}
	line := AppendPairNDJSON(nil, prs[len(prs)-1])
	if n := testing.AllocsPerRun(100, func() { ParsePairNDJSON(line) }); n != 0 {
		t.Errorf("ParsePairNDJSON allocates %.0f times per row, want 0", n)
	}
}

// TestParsePairNDJSONRefuses: valid JSON in any other shape or spelling is
// refused, as is anything encoding/json itself would refuse.
func TestParsePairNDJSONRefuses(t *testing.T) {
	for _, line := range []string{
		``,
		`{"p_id":1,"q_id":2,"cx":0.5,"cy":1.5`,
		`{"p_id":1,"q_id":2,"cx":0.5,"cy":1.5,"r":`,
		`{"p_id":1,"q_id":2,"cx":NaN,"cy":1.5,"r":2}`,
		`{"p_id":1,"q_id":2,"cx":+Inf,"cy":1.5,"r":2}`,
		`{"p_id":1,"q_id":2,"cx":0.5,"cy":0x1p-2,"r":2}`,
		`{"p_id":1_0,"q_id":2,"cx":0.5,"cy":1.5,"r":2}`,
		`{"p_id":1,"q_id":2,"cx":0.5,"cy":1.5,"r":1_0}`,
		`{"q_id":2,"p_id":1,"cx":0.5,"cy":1.5,"r":2}`,
		`{"p_id":1,"q_id":2,"cy":1.5,"cx":0.5,"r":2}`,
		`{"p_id":1,"q_id":2,"cx":0.5,"cy":1.5,"r":2,"x":3}`,
		`{"p_id": 1,"q_id":2,"cx":0.5,"cy":1.5,"r":2}`,
		`{"p_id":1,"q_id":2,"cx":0.5 ,"cy":1.5,"r":2}`,
		`{"p_id":1.5,"q_id":2,"cx":0.5,"cy":1.5,"r":2}`,
		`{"p_id":1,"q_id":2e0,"cx":0.5,"cy":1.5,"r":2}`,
		`{"p_id":1,"q_id":2,"cx":0.5,"cy":1.5,"r":2}x`,
		`{"p_id":1,"q_id":2,"cx":0.5,"cy":1.5,"r":2} `,
		`{"p_id":1,"q_id":2,"cx":0.5,"cy":1.5,"r":2}` + "\n\n",
		`{"p_id":-0,"q_id":2,"cx":0.5,"cy":1.5,"r":2}`,
		`{"p_id":01,"q_id":2,"cx":0.5,"cy":1.5,"r":2}`,
		`{"p_id":9223372036854775808,"q_id":2,"cx":0.5,"cy":1.5,"r":2}`,
		`{"p_id":1,"q_id":2,"cx":1.0,"cy":1.5,"r":2}`,
		`{"p_id":1,"q_id":2,"cx":1E2,"cy":1.5,"r":2}`,
		`{"p_id":1,"q_id":2,"cx":0.30000000000000001,"cy":1.5,"r":2}`,
		`{"p_id":1,"q_id":2,"cx":.5,"cy":1.5,"r":2}`,
		`{"p_id":1,"q_id":2,"cx":5.,"cy":1.5,"r":2}`,
		`{"p_id":1,"q_id":2,"cx":1e400,"cy":1.5,"r":2}`,
		`{"p_id":1,"q_id":2,"cx":1e-400,"cy":1.5,"r":2}`,
	} {
		if pl, err := ParsePairNDJSON([]byte(line)); err == nil {
			t.Errorf("ParsePairNDJSON(%q) = %+v, want an error", line, pl)
		}
	}
}

// FuzzParsePairNDJSON: a row the parser accepts is one json.Unmarshal
// accepts into the same PairLine, bit for bit, and AppendPairNDJSON of it
// gives the row back byte for byte; a row encoding/json reads and the
// encoder writes identically is never refused.
func FuzzParsePairNDJSON(f *testing.F) {
	for _, pr := range edgePairs() {
		f.Add(AppendPairNDJSON(nil, pr))
	}
	f.Add([]byte(`{"p_id":1,"q_id":2,"cx":1.0,"cy":1.5,"r":2}`))
	f.Fuzz(func(t *testing.T, line []byte) {
		got, err := ParsePairNDJSON(line)
		var want PairLine
		jerr := json.Unmarshal(line, &want)
		canon := bytes.TrimSuffix(line, []byte{'\n'})
		reenc := AppendPairNDJSON(nil, want.Pair())
		if err != nil {
			if jerr == nil && string(reenc[:len(reenc)-1]) == string(canon) {
				t.Fatalf("refused %q (%v), which encoding/json reads and the encoder writes", line, err)
			}
			return
		}
		if jerr != nil || !samePairLine(got, want) {
			t.Fatalf("accepted %q as %+v; encoding/json reads %+v, %v", line, got, want, jerr)
		}
		if again := AppendPairNDJSON(nil, got.Pair()); string(again[:len(again)-1]) != string(canon) {
			t.Fatalf("accepted %q, which re-encodes as %q", line, again)
		}
	})
}

// TestAppendPairCSVMatchesFprintf: the pooled CSV row equals the
// fmt.Fprintf row it replaced.
func TestAppendPairCSVMatchesFprintf(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 2000; i++ {
		pr := rcj.Pair{
			P:      rcj.Point{ID: rng.Int63n(1 << 32)},
			Q:      rcj.Point{ID: -rng.Int63n(1 << 32)},
			Center: rcj.Point{X: rng.NormFloat64() * 1e3, Y: rng.NormFloat64() * 1e3},
			Radius: math.Abs(rng.NormFloat64()) * 100,
		}
		want := fmt.Sprintf("%d,%d,%s,%s,%s\n", pr.P.ID, pr.Q.ID,
			strconv.FormatFloat(pr.Center.X, 'f', 6, 64),
			strconv.FormatFloat(pr.Center.Y, 'f', 6, 64),
			strconv.FormatFloat(pr.Radius, 'f', 6, 64))
		if got := AppendPairCSV(nil, pr); string(got) != want {
			t.Fatalf("pair %d:\n got %q\nwant %q", i, got, want)
		}
	}
}

var benchPairs = func() []rcj.Pair {
	rng := rand.New(rand.NewSource(3))
	prs := make([]rcj.Pair, 256)
	for i := range prs {
		prs[i] = rcj.Pair{
			P:      rcj.Point{ID: rng.Int63n(1 << 32)},
			Q:      rcj.Point{ID: rng.Int63n(1 << 32)},
			Center: rcj.Point{X: rng.Float64() * 1e4, Y: rng.Float64() * 1e4},
			Radius: rng.Float64() * 500,
		}
	}
	return prs
}()

// BenchmarkEncodePairJSONEncoder is the before: one reflection-driven
// json.Encoder.Encode per line, as /join shipped prior to the appenders.
func BenchmarkEncodePairJSONEncoder(b *testing.B) {
	enc := json.NewEncoder(io.Discard)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pr := benchPairs[i%len(benchPairs)]
		enc.Encode(PairLine{PID: pr.P.ID, QID: pr.Q.ID, CX: pr.Center.X, CY: pr.Center.Y, Radius: pr.Radius})
	}
}

// BenchmarkEncodePairPooled is the after: strconv into a reused buffer.
func BenchmarkEncodePairPooled(b *testing.B) {
	b.ReportAllocs()
	buf := make([]byte, 0, 256)
	for i := 0; i < b.N; i++ {
		buf = AppendPairNDJSON(buf[:0], benchPairs[i%len(benchPairs)])
		io.Discard.Write(buf)
	}
}

// BenchmarkEncodePairCSVFprintf / Pooled: the CSV before/after.
func BenchmarkEncodePairCSVFprintf(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pr := benchPairs[i%len(benchPairs)]
		fmt.Fprintf(io.Discard, "%d,%d,%s,%s,%s\n", pr.P.ID, pr.Q.ID,
			strconv.FormatFloat(pr.Center.X, 'f', 6, 64),
			strconv.FormatFloat(pr.Center.Y, 'f', 6, 64),
			strconv.FormatFloat(pr.Radius, 'f', 6, 64))
	}
}

func BenchmarkEncodePairCSVPooled(b *testing.B) {
	b.ReportAllocs()
	buf := make([]byte, 0, 256)
	for i := 0; i < b.N; i++ {
		buf = AppendPairCSV(buf[:0], benchPairs[i%len(benchPairs)])
		io.Discard.Write(buf)
	}
}

// BenchmarkParsePairJSONUnmarshal / Strconv: the router's per-row decode
// before (reflection) and after (ParsePairNDJSON).
func BenchmarkParsePairJSONUnmarshal(b *testing.B) {
	lines := benchLines()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var pl PairLine
		if err := json.Unmarshal(lines[i%len(lines)], &pl); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParsePairStrconv(b *testing.B) {
	lines := benchLines()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParsePairNDJSON(lines[i%len(lines)]); err != nil {
			b.Fatal(err)
		}
	}
}

func benchLines() [][]byte {
	lines := make([][]byte, len(benchPairs))
	for i, pr := range benchPairs {
		lines[i] = AppendPairNDJSON(nil, pr)
	}
	return lines
}

package server

import (
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

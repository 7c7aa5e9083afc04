package server

import (
	"math"
	"strconv"

	"repro/rcj"
)

// Result-line encoding. The /join hot loop used to push every pair through
// a fresh reflection pass in encoding/json (and an fmt.Fprintf for CSV),
// allocating per line; a streamed join emits millions of lines, so the
// encoder is serving-path CPU. These appenders build each line into the
// response writer's scratch buffer with strconv only — zero allocations per
// line — while producing byte-identical output: appendJSONFloat replicates
// encoding/json's float encoding exactly (verified against json.Marshal in
// the tests), so clients, goldens, and the CI byte-diff gates cannot tell
// the difference.

// appendJSONFloat appends f exactly as encoding/json encodes a float64:
// shortest round-trip form, 'f' notation except for magnitudes below 1e-6
// or at least 1e21 (which use 'e'), and a negative exponent's padding zero
// trimmed ("1e-09" becomes "1e-9"; positive exponents keep theirs). Kept in
// lockstep with encoding/json's floatEncoder.
func appendJSONFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// encoding/json cleans "e-09" up to "e-9" (one-digit exponents keep
		// no padding zero).
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// AppendPairNDJSON appends one PairLine exactly as json.Encoder would
// (field order fixed by the struct, trailing newline included). It and
// AppendPairCSV are exported for the scatter-gather router, which re-emits
// worker rows to its own clients and must produce byte-identical lines (the
// CI gates diff router output against rcjjoin directly).
func AppendPairNDJSON(b []byte, pr rcj.Pair) []byte {
	b = append(b, `{"p_id":`...)
	b = strconv.AppendInt(b, pr.P.ID, 10)
	b = append(b, `,"q_id":`...)
	b = strconv.AppendInt(b, pr.Q.ID, 10)
	b = append(b, `,"cx":`...)
	b = appendJSONFloat(b, pr.Center.X)
	b = append(b, `,"cy":`...)
	b = appendJSONFloat(b, pr.Center.Y)
	b = append(b, `,"r":`...)
	b = appendJSONFloat(b, pr.Radius)
	b = append(b, '}', '\n')
	return b
}

// AppendPairCSV appends one CSV row in the /join CSV format: ids, then the
// center and radius with six fixed decimals.
func AppendPairCSV(b []byte, pr rcj.Pair) []byte {
	b = strconv.AppendInt(b, pr.P.ID, 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, pr.Q.ID, 10)
	b = append(b, ',')
	b = strconv.AppendFloat(b, pr.Center.X, 'f', 6, 64)
	b = append(b, ',')
	b = strconv.AppendFloat(b, pr.Center.Y, 'f', 6, 64)
	b = append(b, ',')
	b = strconv.AppendFloat(b, pr.Radius, 'f', 6, 64)
	b = append(b, '\n')
	return b
}

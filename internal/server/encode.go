package server

import (
	"bytes"
	"errors"
	"fmt"
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

// ParsePairNDJSON is AppendPairNDJSON's inverse: it reads one result row
// (its trailing newline optional) back into a PairLine. It accepts only the
// bytes the encoder writes — the five fields in order, no whitespace, each
// number a JSON number in the encoder's own form — so a row it accepts is
// one json.Unmarshal reads into the same PairLine, bit for bit, and
// re-encodes to the same bytes. Numbers are read with strconv on the line
// itself: no reflection, and no allocation unless the row is refused. The
// router parses every worker row with it.
func ParsePairNDJSON(line []byte) (PairLine, error) {
	var l PairLine
	b, ok := bytes.CutPrefix(line, []byte(`{"p_id":`))
	if !ok {
		return l, errors.New(`row does not start with {"p_id":`)
	}
	var err error
	if l.PID, b, err = cutRowInt(b, `,"q_id":`); err != nil {
		return l, err
	}
	if l.QID, b, err = cutRowInt(b, `,"cx":`); err != nil {
		return l, err
	}
	if l.CX, b, err = cutRowFloat(b, `,"cy":`); err != nil {
		return l, err
	}
	if l.CY, b, err = cutRowFloat(b, `,"r":`); err != nil {
		return l, err
	}
	if l.Radius, b, err = cutRowFloat(b, `}`); err != nil {
		return l, err
	}
	if len(b) > 1 || len(b) == 1 && b[0] != '\n' {
		return l, errors.New("bytes after the row's closing brace")
	}
	return l, nil
}

// cutRowInt reads the id AppendInt wrote at the front of b, which must be
// followed by next, and returns the bytes after next. AppendInt writes no
// '+', no leading zero and no "-0"; ParseInt refuses everything else that
// is not a decimal int64.
func cutRowInt(b []byte, next string) (int64, []byte, error) {
	tok, rest, ok := cutRowNumber(b, next)
	digits := bytes.TrimPrefix(tok, []byte{'-'})
	if ok && len(digits) > 0 && ('1' <= digits[0] && digits[0] <= '9' || len(tok) == 1) {
		if v, err := strconv.ParseInt(string(tok), 10, 64); err == nil {
			return v, rest, nil
		}
	}
	return 0, nil, fmt.Errorf("no int64 in AppendInt's form before %s", next)
}

// cutRowFloat reads the float appendJSONFloat wrote at the front of b,
// which must be followed by next, and returns the bytes after next. A
// finite value the encoder writes back unchanged is a JSON number in its
// one spelling; that refuses NaN, infinities, hex floats, underscores and
// every other spelling of the same value ("1.0", "1E2", ".5").
func cutRowFloat(b []byte, next string) (float64, []byte, error) {
	tok, rest, ok := cutRowNumber(b, next)
	if ok {
		var canon [32]byte
		v, err := strconv.ParseFloat(string(tok), 64)
		if err == nil && !math.IsInf(v, 0) && !math.IsNaN(v) && bytes.Equal(appendJSONFloat(canon[:0], v), tok) {
			return v, rest, nil
		}
	}
	return 0, nil, fmt.Errorf("no float64 in the encoder's form before %s", next)
}

// cutRowNumber splits b where next starts (no number the encoder writes
// holds next's first byte) and returns the bytes before it and after it.
func cutRowNumber(b []byte, next string) (tok, rest []byte, ok bool) {
	i := bytes.IndexByte(b, next[0])
	if i < 0 || !bytes.HasPrefix(b[i:], []byte(next)) {
		return nil, nil, false
	}
	return b[:i], b[i+len(next):], true
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

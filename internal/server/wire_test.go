package server

import (
	"net/http/httptest"
	"testing"
	"time"

	"repro/rcj"
)

// flushCounter is a ResponseRecorder that counts flushes.
type flushCounter struct {
	*httptest.ResponseRecorder
	flushes int
}

func (f *flushCounter) Flush() {
	f.flushes++
	f.ResponseRecorder.Flush()
}

// TestJoinWriterFlushRule pins JoinWriter's one flush rule: the first row
// at once, then at most once per flushInterval as rows are written, and
// the end of the stream.
func TestJoinWriterFlushRule(t *testing.T) {
	rec := &flushCounter{ResponseRecorder: httptest.NewRecorder()}
	jw := NewJoinWriter(rec, false)
	pr := rcj.Pair{P: rcj.Point{X: 1, Y: 2, ID: 3}, Q: rcj.Point{X: 4, Y: 6, ID: 7}}
	row := func() {
		t.Helper()
		if err := jw.Pair(pr, nil); err != nil {
			t.Fatal(err)
		}
	}

	row()
	if rec.flushes != 1 {
		t.Fatalf("after the first row: %d flushes, want 1", rec.flushes)
	}
	start := time.Now()
	for range 500 {
		row()
	}
	if most := 1 + int(time.Since(start)/flushInterval); rec.flushes > most {
		t.Fatalf("500 rows in %v flushed %d times, want at most %d", time.Since(start), rec.flushes, most)
	}
	time.Sleep(flushInterval)
	before := rec.flushes
	row()
	if rec.flushes != before+1 {
		t.Fatalf("a row %v after the last flush: %d flushes, want %d", flushInterval, rec.flushes, before+1)
	}
	jw.Summary(map[string]int{"results": 502})
	if rec.flushes != before+2 {
		t.Fatalf("the summary: %d flushes, want %d", rec.flushes, before+2)
	}
}

// Command rcjviz renders a ring-constrained join as an SVG: dataset P as
// blue dots, dataset Q as red dots, each result pair's enclosing circle in
// translucent gray with its center — the fair middleman location — marked
// with a cross.
//
// Usage:
//
//	rcjviz -p restaurants.csv -q residences.csv > join.svg
//	rcjviz -p buildings.csv -self > postboxes.svg
//	rcjviz -demo > demo.svg                      # built-in demo scene
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"repro/internal/workload"
	"repro/rcj"
)

func main() {
	var (
		pPath = flag.String("p", "", "CSV file of dataset P")
		qPath = flag.String("q", "", "CSV file of dataset Q")
		self  = flag.Bool("self", false, "render the self-join of P")
		demo  = flag.Bool("demo", false, "render a built-in demo scene instead of files")
		size  = flag.Int("size", 900, "output image size in pixels")
	)
	flag.Parse()

	var pPts, qPts []rcj.Point
	switch {
	case *demo:
		pPts, qPts = demoScene()
	case *pPath != "" && (*qPath != "" || *self):
		pPts = loadPoints(*pPath)
		if !*self {
			qPts = loadPoints(*qPath)
		}
	default:
		fmt.Fprintln(os.Stderr, "rcjviz: need -demo, or -p with -q (or -self)")
		flag.Usage()
		os.Exit(2)
	}

	eng := rcj.NewEngine(rcj.EngineConfig{})
	ctx := context.Background()
	ixP, err := eng.BuildIndex(pPts, rcj.IndexConfig{})
	if err != nil {
		fatalf("index P: %v", err)
	}
	defer ixP.Close()

	ixQ := ixP // the self-join is P on both sides
	if !(*self || *demo && qPts == nil) {
		if ixQ, err = eng.BuildIndex(qPts, rcj.IndexConfig{}); err != nil {
			fatalf("index Q: %v", err)
		}
		defer ixQ.Close()
	}
	pairs, _, err := eng.RunCollect(ctx, ixQ, ixP, rcj.Query{})
	if err != nil {
		fatalf("join: %v", err)
	}

	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	if err := renderSVG(out, pPts, qPts, pairs, *size); err != nil {
		fatalf("render: %v", err)
	}
	fmt.Fprintf(os.Stderr, "rcjviz: rendered %d P points, %d Q points, %d pairs\n",
		len(pPts), len(qPts), len(pairs))
}

// demoScene builds a small clustered scene whose join is visually readable.
func demoScene() (p, q []rcj.Point) {
	rng := rand.New(rand.NewSource(8))
	centers := [][2]float64{{250, 300}, {700, 250}, {450, 700}}
	for i := 0; i < 40; i++ {
		c := centers[i%len(centers)]
		p = append(p, rcj.Point{
			X: c[0] + rng.NormFloat64()*90, Y: c[1] + rng.NormFloat64()*90, ID: int64(i),
		})
		q = append(q, rcj.Point{
			X: c[0] + rng.NormFloat64()*90, Y: c[1] + rng.NormFloat64()*90, ID: int64(i),
		})
	}
	return p, q
}

func loadPoints(path string) []rcj.Point {
	f, err := os.Open(path)
	if err != nil {
		fatalf("%v", err)
	}
	defer f.Close()
	entries, err := workload.ReadPoints(bufio.NewReader(f))
	if err != nil {
		fatalf("%s: %v", path, err)
	}
	pts := make([]rcj.Point, len(entries))
	for i, e := range entries {
		pts[i] = rcj.Point{X: e.P.X, Y: e.P.Y, ID: e.ID}
	}
	return pts
}

// renderSVG writes the scene scaled into a size×size viewport.
func renderSVG(w io.Writer, p, q []rcj.Point, pairs []rcj.Pair, size int) error {
	minX, minY := +1e300, +1e300
	maxX, maxY := -1e300, -1e300
	expand := func(pts []rcj.Point) {
		for _, pt := range pts {
			minX, maxX = fmin(minX, pt.X), fmax(maxX, pt.X)
			minY, maxY = fmin(minY, pt.Y), fmax(maxY, pt.Y)
		}
	}
	expand(p)
	expand(q)
	if minX > maxX {
		return fmt.Errorf("no points")
	}
	span := fmax(maxX-minX, maxY-minY)
	if span == 0 {
		span = 1
	}
	const margin = 30.0
	scale := (float64(size) - 2*margin) / span
	tx := func(x float64) float64 { return margin + (x-minX)*scale }
	ty := func(y float64) float64 { return float64(size) - margin - (y-minY)*scale }

	if _, err := fmt.Fprintf(w, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">
<rect width="100%%" height="100%%" fill="white"/>
`, size, size, size, size); err != nil {
		return err
	}
	// Circles first (underneath the points).
	for _, pr := range pairs {
		fmt.Fprintf(w, `<circle cx="%.2f" cy="%.2f" r="%.2f" fill="#9aa0a6" fill-opacity="0.12" stroke="#5f6368" stroke-opacity="0.45" stroke-width="0.7"/>
`, tx(pr.Center.X), ty(pr.Center.Y), pr.Radius*scale)
	}
	for _, pr := range pairs {
		cx, cy := tx(pr.Center.X), ty(pr.Center.Y)
		fmt.Fprintf(w, `<path d="M%.2f %.2f L%.2f %.2f M%.2f %.2f L%.2f %.2f" stroke="#188038" stroke-width="1.2"/>
`, cx-3, cy, cx+3, cy, cx, cy-3, cx, cy+3)
	}
	for _, pt := range p {
		fmt.Fprintf(w, `<circle cx="%.2f" cy="%.2f" r="2.6" fill="#1a73e8"/>
`, tx(pt.X), ty(pt.Y))
	}
	for _, pt := range q {
		fmt.Fprintf(w, `<circle cx="%.2f" cy="%.2f" r="2.6" fill="#d93025"/>
`, tx(pt.X), ty(pt.Y))
	}
	fmt.Fprintf(w, `<text x="%f" y="20" font-family="sans-serif" font-size="13" fill="#3c4043">ring-constrained join: %d pairs; blue = P, red = Q, cross = middleman</text>
`, margin, len(pairs))
	_, err := fmt.Fprintln(w, `</svg>`)
	return err
}

func fmin(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func fmax(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rcjviz: "+format+"\n", args...)
	os.Exit(1)
}

// Command rcjbench regenerates the tables and figures of the paper's
// experimental evaluation (Section 5).
//
// Usage:
//
//	rcjbench -exp table4            # one experiment
//	rcjbench -exp fig16 -scale 1    # at full paper cardinalities
//	rcjbench -exp all -scale 0.1    # everything, 10% scale (default)
//
// Experiments (exp.Experiments, in run order): table4, fig10 ... fig18 (the
// paper's evaluation); ablate, costmodel, resultsize, network (this
// library's extension studies); all.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/exp"
)

func main() {
	names := make([]string, len(exp.Experiments))
	for i, e := range exp.Experiments {
		names[i] = e.Name
	}
	var (
		expName    = flag.String("exp", "all", "experiment id: "+strings.Join(names, ", ")+", or all")
		scale      = flag.Float64("scale", 0.1, "dataset cardinality scale vs the paper (1 = full scale)")
		bufferFrac = flag.Float64("buffer", 0.01, "buffer size as a fraction of total tree sizes")
		pageSize   = flag.Int("pagesize", 1024, "index page size in bytes")
	)
	flag.Parse()

	// Ctrl-C cancels the in-flight join instead of killing mid-sweep: the
	// experiment drivers thread this context into every core.JoinContext.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := exp.Config{Scale: *scale, BufferFrac: *bufferFrac, PageSize: *pageSize, W: os.Stdout, Ctx: ctx}

	want := strings.ToLower(*expName)
	ran := false
	for _, e := range exp.Experiments {
		if want != "all" && want != e.Name {
			continue
		}
		ran = true
		start := time.Now()
		if _, err := e.Run(cfg); err != nil {
			if errors.Is(err, context.Canceled) {
				fmt.Fprintf(os.Stderr, "rcjbench: %s: interrupted\n", e.Name)
				os.Exit(130)
			}
			fmt.Fprintf(os.Stderr, "rcjbench: %s: %v\n", e.Name, err)
			os.Exit(1)
		}
		fmt.Printf("[%s completed in %v]\n\n", e.Name, time.Since(start).Round(time.Millisecond))
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "rcjbench: unknown experiment %q (want %s, or all)\n", *expName, strings.Join(names, ", "))
		os.Exit(2)
	}
}

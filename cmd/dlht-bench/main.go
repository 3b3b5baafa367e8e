// Command dlht-bench regenerates the DLHT paper's evaluation tables and
// figures (§5). Each experiment prints the same rows/series the paper
// reports, scaled by the flags below.
//
// Usage:
//
//	dlht-bench -list
//	dlht-bench -exp fig3
//	dlht-bench -exp all -keys 1048576 -dur 400ms
//	dlht-bench -exp fig5 -threads 1,2,4 -csv
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	var (
		exp     = flag.String("exp", "", "experiment id (see -list), or 'all'")
		list    = flag.Bool("list", false, "list available experiments")
		keys    = flag.Uint64("keys", 1<<20, "prepopulated key count (paper: 100M)")
		popKeys = flag.Uint64("pop", 0, "population-experiment keys (default 4x keys; paper: 800M)")
		dur     = flag.Duration("dur", 400*time.Millisecond, "measurement window per data point")
		threads = flag.String("threads", "", "comma-separated thread sweep (default 1,2,4,..,NumCPU)")
		batch   = flag.Int("batch", 16, "batch size for DLHT's prefetched path")
		window  = flag.Int("window", 0, "prefetch window for DLHT batches (<=0 = default 16)")
		csv     = flag.Bool("csv", false, "emit CSV instead of aligned tables")
	)
	flag.Parse()
	bench.SetPrefetchWindow(*window)

	if *list {
		for _, e := range bench.Registry {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return
	}
	if *exp == "" {
		flag.Usage()
		os.Exit(2)
	}

	s := bench.DefaultScale()
	s.Keys = *keys
	s.Dur = *dur
	s.Batch = *batch
	if *popKeys != 0 {
		s.PopKeys = *popKeys
	} else {
		s.PopKeys = *keys * 4
	}
	if *threads != "" {
		s.Threads = nil
		for _, part := range strings.Split(*threads, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n < 1 {
				fmt.Fprintf(os.Stderr, "bad -threads value %q\n", part)
				os.Exit(2)
			}
			s.Threads = append(s.Threads, n)
		}
	}

	run := func(e bench.Experiment) {
		start := time.Now()
		res := e.Run(s)
		if *csv {
			fmt.Printf("# %s — %s\n%s", res.ID, res.Title, res.CSV())
		} else {
			fmt.Println(res.String())
		}
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n", e.ID, time.Since(start).Round(time.Millisecond))
	}

	if *exp == "all" {
		for _, e := range bench.Registry {
			run(e)
		}
		return
	}
	e, err := bench.Lookup(*exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	run(e)
}

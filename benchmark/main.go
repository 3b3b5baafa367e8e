// Command benchmark is the repository's one benchmark: six named
// workloads, six end-to-end metrics each, and a traced in-process layer
// ladder. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
)

var selfPID = os.Getpid()

// e2eMetric declares one end-to-end metric: its unit, which direction is
// better, and the share of the earlier value by which it may get worse
// before that counts as a regression. BENCHMARK.json repeats these; a test
// keeps the two in step.
type e2eMetric struct {
	unit   string
	better string
	bound  float64
}

var endToEnd = map[string]e2eMetric{
	"throughput_mops":   {"Mops/s", "higher", 0.25},
	"p50_us":            {"us", "lower", 0.25},
	"p90_us":            {"us", "lower", 0.25},
	"cpu_us_per_op":     {"us", "lower", 0.25},
	"mem_bytes_per_key": {"bytes", "lower", 0.15},
	"setup_s":           {"s", "lower", 0.25},
}

func main() {
	var (
		name      = flag.String("workload", "", "workload to run (default: all six, one result line each)")
		seed      = flag.Uint64("seed", 1, "seed of the generated op streams and key set")
		seconds   = flag.Float64("seconds", 24, "measured phase, shared between three instances and cut into one-second slices")
		trace     = flag.Int("trace", 0, "1 replays the streams through the in-process layer ladder and reports per-layer metrics")
		quick     = flag.Bool("quick", false, "2^14 keys and one measured second: proves every workload runs, asserts no bounds")
		selfcheck = flag.Bool("selfcheck", false, "run the untraced set twice and fail if any metric differs by more than its bound")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *quick {
		*seconds = 1
	}
	wls := workloads
	if *name != "" {
		wl, ok := findWorkload(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		wls = []workload{wl}
	}
	root := outRoot()
	server, err := buildServer(root)
	if err != nil {
		fatal(err)
	}
	sb, err := newSandbox(root, server)
	if err != nil {
		fatal(err)
	}
	o := runOpts{seed: *seed, seconds: *seconds, quick: *quick, sb: sb}
	runSet := func() []result {
		var set []result
		for _, wl := range wls {
			var res result
			if *trace != 0 {
				res, err = runTrace(wl, o, root)
			} else {
				res, err = runWorkload(wl, o)
			}
			if err != nil {
				sb.close()
				fatal(fmt.Errorf("%s: %w", wl.name, err))
			}
			res.print(os.Stdout)
			set = append(set, res)
		}
		return set
	}
	code := 0
	first := runSet()
	for _, r := range first {
		code = max(code, r.exitCode())
	}
	if *selfcheck {
		second := runSet()
		for _, r := range second {
			code = max(code, r.exitCode())
		}
		if !compareSets(os.Stdout, first, second) {
			code = 1
		}
	}
	sb.close()
	os.Exit(code)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// exitCode is non-zero for a run in which any op failed.
func (r result) exitCode() int {
	if r.failed > 0 {
		return 1
	}
	return 0
}

// print writes the metrics as a table and then, as one line, the JSON
// object the benchmark contract asks for.
func (r result) print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %d ops attempted, %d failed\n", r.workload, r.attempted, r.failed)
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%-28s %14.6g %s\n", m.name, m.value, m.unit)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "   %s\n", n)
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted uint64        `json:"attempted"`
		Failed    uint64        `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, map[string]jm{}}
	for _, m := range r.metrics {
		out.Metrics[m.name] = jm{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintln(w, string(b))
}

// compareSets prints, per workload and end-to-end metric, both runs'
// values, their relative difference and the bound, and reports whether
// every pair is within its bound.
func compareSets(w io.Writer, first, second []result) bool {
	ok := true
	fmt.Fprintf(w, "== selfcheck\n%-12s %-20s %14s %14s %8s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	for i, a := range first {
		for j, m := range a.metrics {
			e, isE2E := endToEnd[m.name]
			if !isE2E {
				continue
			}
			v2 := second[i].metrics[j].value
			diff := math.Abs(v2-m.value) / m.value
			verdict := ""
			if diff > e.bound {
				verdict, ok = "  OUTSIDE", false
			}
			fmt.Fprintf(w, "%-12s %-20s %14.6g %14.6g %7.2f%% %6.0f%%%s\n", a.workload, m.name, m.value, v2, diff*100, e.bound*100, verdict)
		}
	}
	return ok
}

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
	"time"

	dlht "repro"
	core "repro/internal/core"
)

// faultyStore is a core.Store that loses one completion in a thousand and
// corrupts the value of another.
type faultyStore struct {
	core.Store
	n, dropped, corrupted uint64
}

func (f *faultyStore) Pipe(o core.PipeOpts) (core.Pipe, error) {
	onc := o.OnComplete
	o.OnComplete = func(cp core.Completion) {
		f.n++
		switch f.n % 1000 {
		case 0:
			f.dropped++
			return
		case 500:
			// An Insert's completion carries no value to corrupt.
			if cp.Kind != core.OpInsert {
				f.corrupted++
				cp.Value ^= 1 << 40
			}
		}
		onc(cp)
	}
	return f.Store.Pipe(o)
}

func TestCheckerCountsLostAndCorruptCompletions(t *testing.T) {
	tbl := dlht.MustNew(dlht.Config{Resizable: true})
	s, err := tbl.Store()
	if err != nil {
		t.Fatal(err)
	}
	gs := genSpec{seed: 1, keys: 1 << 12, mix: mix{get: 50, put: 20, churn: 30}, workers: 1}
	ks := newKeyspace(gs.seed, gs.keys)
	fs := &faultyStore{Store: s}
	w := &worker{be: fs, st: genStream(gs, 0, 1<<14), chk: newChecker(ks, false)}
	// Load through the healthy store: the faults are for the run.
	w.be = s
	if err := w.load(ks, 1, 16); err != nil {
		t.Fatal(err)
	}
	w.be = fs
	w.lat = latSampler{stride: 64, ordered: true}
	if _, err := conduct([]*worker{w}, nil, 16, 10*time.Millisecond, 20*time.Millisecond, quickSlices, func() (bool, error) { return false, nil }); err != nil {
		t.Fatal(err)
	}
	attempted, failed := w.chk.finish()
	if fs.dropped == 0 || fs.corrupted == 0 {
		t.Fatalf("run too short to inject faults: %d ops", attempted)
	}
	if want := fs.dropped + fs.corrupted; failed != want {
		t.Errorf("checker counted %d failed ops, want %d lost + %d corrupt", failed, fs.dropped, fs.corrupted)
	}

	res := result{workload: "faulty", attempted: attempted, failed: failed}
	if res.exitCode() == 0 {
		t.Error("a run with failed ops exits 0")
	}
	var out bytes.Buffer
	res.print(&out)
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var last struct{ Correct bool }
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil || last.Correct {
		t.Errorf("last line %q: want correct=false (err %v)", lines[len(lines)-1], err)
	}
}

// TestQuickRunMatchesBenchmarkJSON runs every workload in -quick mode,
// untraced and traced, and requires the metric names it prints to be exactly
// the names BENCHMARK.json declares, and every workload BENCHMARK.json names
// to exist.
func TestQuickRunMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name, Unit, Better string
		Bound              float64
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	declared := func(ds []decl) map[string]string {
		m := map[string]string{}
		for _, d := range ds {
			m[d.Name] = d.Unit
		}
		return m
	}
	printed := func(ms []metric) map[string]string {
		m := map[string]string{}
		for _, x := range ms {
			m[x.name] = x.unit
		}
		return m
	}
	same := func(what string, want, got map[string]string) {
		t.Helper()
		for n, u := range want {
			if gu, ok := got[n]; !ok {
				t.Errorf("%s: %s is in BENCHMARK.json but was not printed", what, n)
			} else if gu != u {
				t.Errorf("%s: %s printed in %q, BENCHMARK.json says %q", what, n, gu, u)
			}
		}
		for n := range got {
			if _, ok := want[n]; !ok {
				t.Errorf("%s: %s was printed but is not in BENCHMARK.json", what, n)
			}
		}
	}
	for _, d := range spec.EndToEnd {
		if e, ok := endToEnd[d.Name]; !ok || e.bound != d.Bound || e.better != d.Better {
			t.Errorf("end_to_end %s: BENCHMARK.json says %+v, the program %+v", d.Name, d, e)
		}
	}

	names := map[string]string{}
	for _, w := range spec.Workloads {
		names[w.Name] = ""
	}
	ran := map[string]string{}
	root := outRoot()
	server, err := buildServer(root)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := newSandbox(root, server)
	if err != nil {
		t.Fatal(err)
	}
	defer sb.close()
	o := runOpts{seed: 1, seconds: 1, quick: true, sb: sb}
	for _, wl := range workloads {
		ran[wl.name] = ""
		res, err := runWorkload(wl, o)
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		if res.failed != 0 || res.attempted == 0 {
			t.Errorf("%s: %d of %d ops failed", wl.name, res.failed, res.attempted)
		}
		same(wl.name, declared(spec.EndToEnd), printed(res.metrics))
	}
	// BENCHMARK.json gates on the workloads that repeat well enough on this
	// machine; the others run by hand. See README.md.
	for n := range names {
		if _, ok := ran[n]; !ok {
			t.Errorf("workload %s is in BENCHMARK.json but the program has none of that name", n)
		}
	}
	wl, _ := findWorkload("mem_churn")
	res, err := runTrace(wl, o, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 || res.attempted == 0 {
		t.Errorf("trace: %d of %d ops failed", res.failed, res.attempted)
	}
	same("trace", declared(spec.PerLayer), printed(res.metrics))
}

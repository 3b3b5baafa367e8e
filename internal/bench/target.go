// Package bench is the experiment harness that regenerates every table and
// figure of the DLHT paper's evaluation (§5). It adapts DLHT and the eight
// baselines to one worker interface, drives the paper's workloads across
// thread sweeps, and formats results as the rows/series the paper reports.
package bench

import (
	"fmt"

	"repro/internal/baselines"
	"repro/internal/baselines/clht"
	"repro/internal/baselines/cuckoo"
	"repro/internal/baselines/dramhit"
	"repro/internal/baselines/folly"
	"repro/internal/baselines/growt"
	"repro/internal/baselines/leapfrog"
	"repro/internal/baselines/mica"
	"repro/internal/baselines/tbb"
	"repro/internal/core"
	"repro/internal/hashfn"
)

// Worker is the per-thread operation surface every target provides.
type Worker interface {
	Get(key uint64) (uint64, bool)
	Insert(key, val uint64) bool
	Put(key, val uint64) bool
	Delete(key uint64) bool
}

// BatchGetter is implemented by workers with a batched/prefetched Get path
// (DLHT, MICA, DRAMHiT).
type BatchGetter interface {
	GetBatch(keys []uint64, vals []uint64, oks []bool)
}

// OpsBatcher is implemented by the DLHT worker for mixed-op batches that
// must preserve order (§3.3).
type OpsBatcher interface {
	ExecOps(ops []core.Op)
}

// Target names a table implementation and constructs per-thread workers.
type Target struct {
	Name string
	// NewWorker returns the worker for a thread id. Workers are not shared.
	NewWorker func(tid int) Worker
	// Batched reports whether the target's batch path should be used.
	Batched bool
}

// ---------------------------------------------------------------------------
// DLHT adapters
// ---------------------------------------------------------------------------

// dlhtWorker adapts a core.Handle, batching through Exec.
type dlhtWorker struct {
	h   *core.Handle
	ops []core.Op
}

func (w *dlhtWorker) Get(k uint64) (uint64, bool) { return w.h.Get(k) }
func (w *dlhtWorker) Insert(k, v uint64) bool     { _, err := w.h.Insert(k, v); return err == nil }
func (w *dlhtWorker) Put(k, v uint64) bool        { _, ok := w.h.Put(k, v); return ok }
func (w *dlhtWorker) Delete(k uint64) bool        { _, ok := w.h.Delete(k); return ok }

func (w *dlhtWorker) GetBatch(keys []uint64, vals []uint64, oks []bool) {
	if cap(w.ops) < len(keys) {
		w.ops = make([]core.Op, len(keys))
	}
	ops := w.ops[:len(keys)]
	for i, k := range keys {
		ops[i] = core.Op{Kind: core.OpGet, Key: k}
	}
	w.h.Exec(ops, false)
	for i := range ops {
		vals[i], oks[i] = ops[i].Result, ops[i].OK
	}
}

func (w *dlhtWorker) ExecOps(ops []core.Op) { w.h.Exec(ops, false) }

// DLHTTarget wraps an existing table. batched selects the §3.3 batch engine
// (DLHT) or the per-request path (DLHT-NoBatch).
func DLHTTarget(t *core.Table, name string, batched bool) Target {
	return Target{
		Name:      name,
		Batched:   batched,
		NewWorker: func(int) Worker { return &dlhtWorker{h: t.MustHandle()} },
	}
}

// prefetchWindow is the Config.PrefetchWindow applied to every DLHT table
// the harness constructs; the cmd tools set it once at startup from their
// -window flag (zero or less keeps the core default).
var prefetchWindow int

// SetPrefetchWindow fixes the prefetch window of all subsequently
// constructed DLHT targets. Call before running experiments, not during.
func SetPrefetchWindow(w int) { prefetchWindow = w }

// benchConfig applies the harness-wide prefetch window to a table config
// that does not set one of its own.
func benchConfig(cfg core.Config) core.Config {
	if cfg.PrefetchWindow == 0 {
		cfg.PrefetchWindow = prefetchWindow
	}
	return cfg
}

// mustNewDLHT is core.MustNew with the harness-wide prefetch window
// applied; every experiment that builds a table directly goes through it so
// the -window flag reaches ad-hoc configs, not just NewDLHT geometry.
func mustNewDLHT(cfg core.Config) *core.Table {
	return core.MustNew(benchConfig(cfg))
}

// NewDLHT builds a default-configuration DLHT table for bins/keys geometry,
// mirroring the paper's default (§4): modulo hashing, resizing disabled,
// link buckets at 1/8 of bins.
func NewDLHT(bins uint64, resizable bool) *core.Table {
	return mustNewDLHT(core.Config{
		Bins:       bins,
		Resizable:  resizable,
		MaxThreads: 4096,
	})
}

// ---------------------------------------------------------------------------
// Baseline adapters
// ---------------------------------------------------------------------------

type baselineWorker struct{ m baselines.Map }

func (w baselineWorker) Get(k uint64) (uint64, bool) { return w.m.Get(k) }
func (w baselineWorker) Insert(k, v uint64) bool     { return w.m.Insert(k, v) }
func (w baselineWorker) Put(k, v uint64) bool        { return w.m.Put(k, v) }
func (w baselineWorker) Delete(k uint64) bool        { return w.m.Delete(k) }

type baselineBatchWorker struct {
	baselineWorker
	b baselines.Batcher
}

func (w baselineBatchWorker) GetBatch(keys []uint64, vals []uint64, oks []bool) {
	w.b.GetBatch(keys, vals, oks)
}

// BaselineTarget adapts a baselines.Map.
func BaselineTarget(m baselines.Map) Target {
	_, batched := m.(baselines.Batcher)
	return Target{
		Name:    m.Name(),
		Batched: batched,
		NewWorker: func(int) Worker {
			if b, ok := m.(baselines.Batcher); ok {
				return baselineBatchWorker{baselineWorker{m}, b}
			}
			return baselineWorker{m}
		},
	}
}

// ---------------------------------------------------------------------------
// Standard target sets
// ---------------------------------------------------------------------------

// Geometry sizes every design for the same key budget, following §4's
// defaults (67 M bins for 100 M keys ⇒ bins ≈ 2/3 of keys; open-addressing
// tables get 4× the key count in cells so tombstone-free runs fit).
type Geometry struct {
	Keys uint64
	Hash hashfn.Kind
}

func (g Geometry) bins() uint64 { return g.Keys*2/3 + 64 }

func (g Geometry) cells() uint64 { return g.Keys*4 + 1024 }

// AllTargets instantiates the full Figure 1/3 lineup: DLHT, DLHT-NoBatch
// and the eight baselines, each freshly constructed for the geometry.
func AllTargets(g Geometry) []Target {
	dl := NewDLHT(g.bins(), false)
	return append([]Target{
		DLHTTarget(dl, "DLHT", true),
		DLHTTarget(dl, "DLHT-NoBatch", false),
	}, BaselineTargets(g)...)
}

// FastTargets is the paper's post-Figure-3 comparison set: "we omit those
// baselines [Cuckoo, TBB, Leapfrog] from the rest of our graphs".
func FastTargets(g Geometry) []Target {
	dl := NewDLHT(g.bins(), false)
	return []Target{
		DLHTTarget(dl, "DLHT", true),
		DLHTTarget(dl, "DLHT-NoBatch", false),
		BaselineTarget(growt.New(g.cells(), g.Hash)),
		BaselineTarget(dramhit.New(g.cells(), g.Hash)),
		BaselineTarget(folly.New(g.cells(), g.Hash)),
		BaselineTarget(clht.New(g.bins(), g.Hash)),
		BaselineTarget(mica.New(g.bins(), g.Hash, 8)),
	}
}

// BaselineTargets instantiates all eight baselines.
func BaselineTargets(g Geometry) []Target {
	return []Target{
		BaselineTarget(growt.New(g.cells(), g.Hash)),
		BaselineTarget(dramhit.New(g.cells(), g.Hash)),
		BaselineTarget(folly.New(g.cells(), g.Hash)),
		BaselineTarget(clht.New(g.bins(), g.Hash)),
		BaselineTarget(mica.New(g.bins(), g.Hash, 8)),
		BaselineTarget(cuckoo.New(g.Keys/2+64, g.Hash)),
		BaselineTarget(leapfrog.New(g.cells(), g.Hash)),
		BaselineTarget(tbb.New(g.Keys+64, g.Hash)),
	}
}

// Prepopulate inserts keys 0..n-1 (value = key+1) through a single worker,
// as the paper prepopulates 100 M keys before each experiment.
func Prepopulate(t Target, n uint64) error {
	w := t.NewWorker(0)
	for k := uint64(0); k < n; k++ {
		if !w.Insert(k, k+1) {
			return fmt.Errorf("%s: prepopulate failed at key %d/%d", t.Name, k, n)
		}
	}
	return nil
}

package bench

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/hashfn"
	"repro/internal/workload"
)

// kvWorker drives a table in Allocator mode through 8-byte-encoded integer
// keys, for the value/key-size sensitivity studies.
type kvWorker struct {
	h       *core.Handle
	keyBuf  [256]byte
	keySize int
	val     []byte
}

func (w *kvWorker) key(k uint64) []byte {
	binary.LittleEndian.PutUint64(w.keyBuf[:8], k)
	// Larger keys repeat the 8-byte pattern to the requested size; the
	// unique prefix keeps keys distinct.
	for i := 8; i < w.keySize; i++ {
		w.keyBuf[i] = byte(i)
	}
	n := w.keySize
	if n < 8 {
		n = 8
	}
	return w.keyBuf[:n]
}

// Fig09ValueSize reproduces Figure 9: vary the value size from 8 B
// (inlined) to 1.5 KB (out of line) under Get, Get-Access (reads the whole
// value) and InsDel.
func Fig09ValueSize(s Scale) Result {
	res := Result{
		ID:     "fig9",
		Title:  "Varying value size, M reqs/s",
		Header: []string{"value(B)", "Get", "Get-Access", "InsDel"},
		Notes:  "paper shape: Get flat (pointer API); Get-Access drops fast; InsDel degrades with allocation size",
	}
	prepop := s.Keys / 4
	threads := s.maxThreads()
	for _, vs := range []int{8, 16, 64, 256, 1024, 1500} {
		var get, getAccess, insdel float64
		if vs == 8 {
			// 8-byte values are inlined (§5.2.1).
			tbl := NewDLHT(prepop*2/3+64, false)
			tgt := DLHTTarget(tbl, "DLHT", true)
			PrepopulateParallel(tgt, prepop, threads)
			get = RunWorkload(tgt, threads, s.Dur, GetLoop(tgt, prepop, s.Batch)).MReqs()
			getAccess = get // the inlined value IS the fetched word
			insdel = RunWorkload(tgt, threads, s.Dur, InsDelLoop(tgt, prepop, s.Batch)).MReqs()
		} else {
			mk := func() *core.Table {
				return mustNewDLHT(core.Config{
					Mode: core.Allocator, Bins: prepop*2/3 + 64,
					ValueSize: vs, MaxThreads: 4096,
				})
			}
			get = runKV(mk(), prepop, vs, 8, threads, s.Dur, kvGet)
			getAccess = runKV(mk(), prepop, vs, 8, threads, s.Dur, kvGetAccess)
			insdel = runKV(mk(), prepop, vs, 8, threads, s.Dur, kvInsDel)
		}
		res.AddRow(fmt.Sprint(vs), f1(get), f1(getAccess), f1(insdel))
	}
	return res
}

// Fig10KeySize reproduces Figure 10: vary the key size from 8 to 256 bytes;
// keys beyond 8 bytes move into the allocation and every Get must
// dereference (the paper's "steep performance drop").
func Fig10KeySize(s Scale) Result {
	res := Result{
		ID:     "fig10",
		Title:  "Varying key size, M reqs/s",
		Header: []string{"key(B)", "Get", "InsDel"},
		Notes:  "paper shape: steep drop beyond 8 B keys (pointer dereference + larger allocations)",
	}
	prepop := s.Keys / 4
	threads := s.maxThreads()
	for _, ks := range []int{8, 16, 32, 64, 128, 256} {
		mk := func() *core.Table {
			return mustNewDLHT(core.Config{
				Mode: core.Allocator, Bins: prepop*2/3 + 64,
				ValueSize: 8, VariableKV: true, MaxThreads: 4096,
			})
		}
		get := runKV(mk(), prepop, 8, ks, threads, s.Dur, kvGet)
		insdel := runKV(mk(), prepop, 8, ks, threads, s.Dur, kvInsDel)
		res.AddRow(fmt.Sprint(ks), f1(get), f1(insdel))
	}
	return res
}

// kv workload selectors for runKV.
type kvMode int

const (
	kvGet kvMode = iota
	kvGetAccess
	kvInsDel
)

// runKV prepopulates an Allocator-mode table with integer-derived byte keys
// and drives the selected workload.
func runKV(tbl *core.Table, prepop uint64, valSize, keySize, threads int, dur time.Duration, mode kvMode) float64 {
	// Prepopulate.
	var wg sync.WaitGroup
	per := prepop / uint64(threads)
	if per == 0 {
		per = prepop
	}
	for tid := uint64(0); tid*per < prepop; tid++ {
		lo, hi := tid*per, (tid+1)*per
		if hi > prepop {
			hi = prepop
		}
		wg.Add(1)
		go func(tid, lo, hi uint64) {
			defer wg.Done()
			w := &kvWorker{h: tbl.MustHandle(), keySize: keySize, val: make([]byte, valSize)}
			for k := lo; k < hi; k++ {
				w.h.InsertKV(0, w.key(k), w.val)
			}
		}(tid, lo, hi)
	}
	wg.Wait()

	var stop atomic.Bool
	var total atomic.Uint64
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			w := &kvWorker{h: tbl.MustHandle(), keySize: keySize, val: make([]byte, valSize)}
			stream := workload.NewUniform(uint64(tid)+1, prepop)
			fresh := workload.NewFreshKeys(tid, prepop)
			// Read paths use the two-level prefetched batch (§3.3: "our
			// pointer-based API also allows us to prefetch the externally
			// stored values in Allocator mode"). Each request needs its own
			// key buffer, since kvWorker.key reuses one.
			const kvBatch = 16
			reqs := make([]core.KVGet, kvBatch)
			keyBufs := make([][]byte, kvBatch)
			for i := range keyBufs {
				keyBufs[i] = make([]byte, 256)
			}
			var ops, sink uint64
			for !stop.Load() {
				switch mode {
				case kvGet, kvGetAccess:
					for i := range reqs {
						k := w.key(stream.Key())
						copy(keyBufs[i], k)
						reqs[i] = core.KVGet{Key: keyBufs[i][:len(k)]}
					}
					w.h.GetKVBatch(reqs)
					if mode == kvGetAccess {
						for i := range reqs {
							for _, b := range reqs[i].Value {
								sink += uint64(b)
							}
						}
					}
					ops += kvBatch
				case kvInsDel:
					for i := 0; i < 8; i++ {
						k := w.key(fresh.Key())
						w.h.InsertKV(0, k, w.val)
						w.h.DeleteKV(0, k)
					}
					ops += 16
				}
			}
			_ = sink
			total.Add(ops)
		}(tid)
	}
	begin := time.Now()
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	return float64(total.Load()) / time.Since(begin).Seconds() / 1e6
}

// Fig11IndexSize reproduces Figure 11: vary the index size from
// cache-resident (1 MB) upward; prefetching only pays once the index
// exceeds the cache hierarchy.
func Fig11IndexSize(s Scale) Result {
	res := Result{
		ID:     "fig11",
		Title:  "Varying index size, M reqs/s",
		Header: []string{"index", "bins", "Get", "Get-NoBatch", "InsDel"},
		Notes:  "paper shape: batching overhead-only for L2-resident index; grows beneficial with size. InsDel prefers larger indexes (fewer bin conflicts)",
	}
	threads := s.maxThreads()
	minBins := s.Keys / 16
	if minBins < 1<<8 {
		minBins = 1 << 8
	}
	maxBins := s.Keys * 4
	for bins := minBins; bins <= maxBins; bins *= 4 {
		keys := bins / 2
		tbl := NewDLHT(bins, false)
		tgt := DLHTTarget(tbl, "DLHT", true)
		tgtNB := DLHTTarget(tbl, "DLHT-NoBatch", false)
		PrepopulateParallel(tgt, keys, threads)
		get := RunWorkload(tgt, threads, s.Dur, GetLoop(tgt, keys, s.Batch)).MReqs()
		getNB := RunWorkload(tgtNB, threads, s.Dur, GetLoop(tgtNB, keys, 1)).MReqs()
		insdel := RunWorkload(tgt, threads, s.Dur, InsDelLoop(tgt, keys, s.Batch)).MReqs()
		res.AddRow(fmt.Sprintf("%dMB", bins*64>>20), fmt.Sprint(bins), f1(get), f1(getNB), f1(insdel))
	}
	return res
}

// Fig12BatchSize reproduces Figure 12: batch degree 1..128 for Get, InsDel
// and Get-Resizing (resize capability compiled in but never triggered). The
// paper's resizing tax is the per-batch index announcement of §3.2.5; the
// Go port makes none (the runtime GC frees a drained index), so its
// Get-Resizing column measures only the redirect check, which Get pays too.
func Fig12BatchSize(s Scale) Result {
	res := Result{
		ID:     "fig12",
		Title:  "Varying batch size, M reqs/s",
		Header: []string{"batch", "Get", "InsDel", "Get-Resizing"},
		Notes:  "paper shape: gains saturate ~24; resizing tax largest unbatched (2 atomic stores amortized per batch). Deviation from §3.2.5: this port pays no per-batch index announcement (the Go GC frees drained indexes), so Get-Resizing measures only the redirect check and should track Get",
	}
	threads := s.maxThreads()
	tbl := NewDLHT(s.Keys*2/3+64, false)
	tgt := DLHTTarget(tbl, "DLHT", true)
	PrepopulateParallel(tgt, s.Keys, threads)
	// Resizing-enabled table, sized to never actually resize (§5.2.3).
	tblR := mustNewDLHT(core.Config{Bins: s.Keys*2/3 + 64, Resizable: true, MaxThreads: 4096})
	tgtR := DLHTTarget(tblR, "DLHT-Resizing", true)
	PrepopulateParallel(tgtR, s.Keys, threads)
	for _, batch := range []int{1, 2, 4, 8, 16, 24, 32, 64, 128} {
		bt, btR := tgt, tgtR
		if batch == 1 {
			bt.Batched, btR.Batched = false, false
		}
		get := RunWorkload(bt, threads, s.Dur, GetLoop(bt, s.Keys, batch)).MReqs()
		insdel := RunWorkload(bt, threads, s.Dur, InsDelLoop(bt, s.Keys, batch)).MReqs()
		getR := RunWorkload(btR, threads, s.Dur, GetLoop(btR, s.Keys, batch)).MReqs()
		res.AddRow(fmt.Sprint(batch), f1(get), f1(insdel), f1(getR))
	}
	return res
}

// Fig13Skew reproduces Figure 13: 1000 hot keys receive an increasing share
// of accesses.
func Fig13Skew(s Scale) Result {
	res := Result{
		ID:     "fig13",
		Title:  "Skew (1000 hot keys), M reqs/s",
		Header: []string{"hot%", "Get", "Get-NoBatch", "InsDel-hot"},
		Notes:  "paper shape: Gets improve with skew (cache locality), NoBatch overtakes at 100% hot; InsDel suffers conflicts",
	}
	threads := s.maxThreads()
	tbl := NewDLHT(s.Keys*2/3+64, false)
	tgt := DLHTTarget(tbl, "DLHT", true)
	tgtNB := DLHTTarget(tbl, "DLHT-NoBatch", false)
	PrepopulateParallel(tgt, s.Keys, threads)
	hot := uint64(1000)
	for _, pctHot := range []int{0, 25, 50, 75, 90, 100} {
		get := RunWorkload(tgt, threads, s.Dur, SkewedGetLoop(tgt, s.Keys, hot, pctHot, s.Batch)).MReqs()
		getNB := RunWorkload(tgtNB, threads, s.Dur, SkewedGetLoop(tgtNB, s.Keys, hot, pctHot, 1)).MReqs()
		insdel := RunWorkload(tgt, threads, s.Dur, skewedInsDelLoop(tgt, s.Keys, hot, pctHot)).MReqs()
		res.AddRow(fmt.Sprint(pctHot), f1(get), f1(getNB), f1(insdel))
	}
	return res
}

// skewedInsDelLoop inserts/deletes keys drawn from the skewed distribution
// in a disjoint key region (offset so prepopulated Gets are unaffected);
// hot keys collide across threads, exposing CAS conflicts as in §5.2.4.
func skewedInsDelLoop(t Target, prepop, hotKeys uint64, pctHot int) LoopFunc {
	const region = 1 << 45
	return func(w Worker, tid int, stop *atomic.Bool) uint64 {
		stream := workload.NewSkewed(uint64(tid)*31+7, prepop, hotKeys, pctHot)
		var n uint64
		for !stop.Load() {
			for i := 0; i < 16; i++ {
				k := region + stream.Key()
				w.Insert(k, k)
				w.Delete(k)
			}
			n += 32
		}
		return n
	}
}

// Fig14Features reproduces Figure 14: the cost of enabling features,
// stacked and one-at-a-time, under Get and InsDel with 32-byte values.
func Fig14Features(s Scale) Result {
	res := Result{
		ID:     "fig14",
		Title:  "Enabling features (32 B values), M reqs/s",
		Header: []string{"config", "Get", "InsDel"},
		Notes:  "VariableKV covers the paper's var-value + var-key bars; 'no mimalloc' = naive mutex allocator; +resizing adds no index announcement here (see fig12), so its Get bar should not drop",
	}
	prepop := s.Keys / 4
	threads := s.maxThreads()
	type cfgMod func(*core.Config)
	base := func() core.Config {
		return core.Config{
			Mode: core.Allocator, Bins: prepop*2/3 + 64,
			ValueSize: 32, MaxThreads: 4096,
		}
	}
	run := func(mods ...cfgMod) (float64, float64) {
		cfg := base()
		for _, m := range mods {
			m(&cfg)
		}
		get := runKV(mustNewDLHT(cfg), prepop, 32, 8, threads, s.Dur, kvGet)
		insdel := runKV(mustNewDLHT(cfg), prepop, 32, 8, threads, s.Dur, kvInsDel)
		return get, insdel
	}
	resizing := func(c *core.Config) { c.Resizable = true }
	hashing := func(c *core.Config) { c.Hash = hashfn.WyHash }
	varKV := func(c *core.Config) { c.VariableKV = true }
	namespaces := func(c *core.Config) { c.Namespaces = true; c.VariableKV = true }
	noMimalloc := func(c *core.Config) { c.Alloc = alloc.NewNaive() }

	g, d := run()
	res.AddRow("default", f1(g), f1(d))
	stack := []struct {
		name string
		mods []cfgMod
	}{
		{"+resizing", []cfgMod{resizing}},
		{"+wyhash", []cfgMod{resizing, hashing}},
		{"+variable-kv", []cfgMod{resizing, hashing, varKV}},
		{"+namespaces", []cfgMod{resizing, hashing, varKV, namespaces}},
		{"+no-mimalloc", []cfgMod{resizing, hashing, varKV, namespaces, noMimalloc}},
	}
	for _, st := range stack {
		g, d := run(st.mods...)
		res.AddRow("stacked "+st.name, f1(g), f1(d))
	}
	singles := []struct {
		name string
		mod  cfgMod
	}{
		{"resizing", resizing}, {"wyhash", hashing}, {"variable-kv", varKV},
		{"namespaces", namespaces}, {"no-mimalloc", noMimalloc},
	}
	for _, sg := range singles {
		g, d := run(sg.mod)
		res.AddRow("single "+sg.name, f1(g), f1(d))
	}
	return res
}

// Fig15Latency reproduces Figure 15: average and 99th-percentile latency as
// a function of load for Get and InsDel.
func Fig15Latency(s Scale) Result {
	res := Result{
		ID:     "fig15",
		Title:  "Latency vs load",
		Header: []string{"threads", "Get M/s", "Get avg ns", "Get p99 ns", "InsDel M/s", "InsDel avg ns", "InsDel p99 ns"},
		Notes:  "paper shape: 100s of ns average, sub-microsecond p99, rising with load; InsDel above Get",
	}
	tbl := NewDLHT(s.Keys*2/3+64, false)
	tgt := DLHTTarget(tbl, "DLHT", false)
	PrepopulateParallel(tgt, s.Keys, s.maxThreads())
	for _, th := range s.Threads {
		g := MeasureLatency(tgt, th, s.Keys, s.Dur, true)
		d := MeasureLatency(tgt, th, s.Keys, s.Dur, false)
		res.AddRow(fmt.Sprint(th),
			f1(g.Throughput), f1(g.AvgNs), f1(g.P99Ns),
			f1(d.Throughput), f1(d.AvgNs), f1(d.P99Ns))
	}
	return res
}

// Fig16SingleThread reproduces Figure 16: the single-thread optimization
// (§3.4.5) against the concurrent build on one thread.
func Fig16SingleThread(s Scale) Result {
	res := Result{
		ID:     "fig16",
		Title:  "Single-thread optimization, M reqs/s (1 thread)",
		Header: []string{"workload", "concurrent build", "single-thread build", "gain"},
		Notes:  "paper: +31% InsDel, +35% InsDel-Resize, +91% InsDel-Resize-NoBatch, ~0% Get",
	}
	prepop := s.Keys / 4
	mk := func(single, resizable bool) Target {
		cfg := core.Config{Bins: prepop*2/3 + 64, SingleThread: single, Resizable: resizable, MaxThreads: 4096}
		name := "DLHT"
		if single {
			name = "DLHT-ST"
		}
		return DLHTTarget(mustNewDLHT(cfg), name, true)
	}
	type row struct {
		name      string
		resizable bool
		batch     int
		loop      func(t Target, batch int) LoopFunc
	}
	rows := []row{
		{"Get", false, s.Batch, func(t Target, b int) LoopFunc { return GetLoop(t, prepop, b) }},
		{"InsDel", false, s.Batch, func(t Target, b int) LoopFunc { return InsDelLoop(t, prepop, b) }},
		{"InsDel-Resize", true, s.Batch, func(t Target, b int) LoopFunc { return InsDelLoop(t, prepop, b) }},
		{"InsDel-Resize-NoBatch", true, 1, func(t Target, b int) LoopFunc { return InsDelLoop(t, prepop, b) }},
	}
	for _, r := range rows {
		conc := mk(false, r.resizable)
		single := mk(true, r.resizable)
		if r.name == "Get" {
			PrepopulateParallel(conc, prepop, 1)
			PrepopulateParallel(single, prepop, 1)
		}
		if r.batch == 1 {
			conc.Batched, single.Batched = false, false
		}
		mc := RunWorkload(conc, 1, s.Dur, r.loop(conc, r.batch)).MReqs()
		ms := RunWorkload(single, 1, s.Dur, r.loop(single, r.batch)).MReqs()
		gain := 0.0
		if mc > 0 {
			gain = (ms - mc) / mc
		}
		res.AddRow(r.name, f1(mc), f1(ms), pct(gain))
	}
	return res
}

// CXLEmulation reproduces §5.3.2: the Get workload under injected
// far-memory latency, with and without batching.
func CXLEmulation(s Scale) Result {
	res := Result{
		ID:     "cxl",
		Title:  "CXL emulation: Get under injected far-memory latency, M reqs/s",
		Header: []string{"config", "local", "far (CXL emu)"},
		Notes:  "paper: DLHT (prefetching) retains 2.9x over DLHT-NoBatch under far memory; far ~ half of local",
	}
	threads := s.maxThreads() / 2
	if threads < 1 {
		threads = 1
	}
	tbl := NewDLHT(s.Keys*2/3+64, false)
	tgt := DLHTTarget(tbl, "DLHT", true)
	tgtNB := DLHTTarget(tbl, "DLHT-NoBatch", false)
	PrepopulateParallel(tgt, s.Keys, threads)
	for _, t := range []Target{tgt, tgtNB} {
		local := RunWorkload(t, threads, s.Dur, GetLoop(t, s.Keys, s.Batch)).MReqs()
		far := CXLTarget(t)
		farM := RunWorkload(far, threads, s.Dur, GetLoop(far, s.Keys, s.Batch)).MReqs()
		res.AddRow(t.Name, f1(local), f1(farM))
	}
	return res
}

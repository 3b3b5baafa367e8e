// Benchmark harness: one testing.B benchmark per table/figure of the DLHT
// paper's evaluation. Each benchmark runs the corresponding experiment at a
// benchmark-friendly scale and reports the headline figure metric through
// b.ReportMetric, printing the full table with -v. Absolute numbers depend
// on the host; the shapes (who wins, by what factor, where crossovers fall)
// are the reproduction target — see EXPERIMENTS.md.
//
// Usage:
//
//	go test -bench=. -benchmem            # everything
//	go test -bench=BenchmarkFig03 -v      # one figure with its table
package dlht

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/bench"
)

// benchScale sizes experiments for testing.B runs: a memory-resident index
// (beyond cache) but bounded per-iteration cost.
func benchScale(b *testing.B) bench.Scale {
	b.Helper()
	s := bench.DefaultScale()
	s.Keys = 1 << 18
	s.PopKeys = 1 << 20
	s.Dur = 150 * time.Millisecond
	s.Batch = 16
	return s
}

// runExperiment executes the registered experiment once per b.N batch and
// reports its first DLHT column as the metric.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := bench.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	s := benchScale(b)
	var last bench.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		last = e.Run(s)
	}
	b.StopTimer()
	if len(last.Rows) == 0 {
		b.Fatalf("%s produced no rows", id)
	}
	if v, err := strconv.ParseFloat(firstNumeric(last), 64); err == nil {
		b.ReportMetric(v, "Mreqs/s")
	}
	if testing.Verbose() {
		b.Log("\n" + last.String())
	}
}

// firstNumeric extracts the first parsable cell after the row label from
// the final row (typically the highest-thread-count DLHT figure).
func firstNumeric(r bench.Result) string {
	row := r.Rows[len(r.Rows)-1]
	for _, c := range row[1:] {
		if _, err := strconv.ParseFloat(c, 64); err == nil {
			return c
		}
	}
	return "0"
}

func BenchmarkFig01_Headline(b *testing.B)         { runExperiment(b, "fig1") }
func BenchmarkTable01_Features(b *testing.B)       { runExperiment(b, "table1") }
func BenchmarkFig03_GetThroughput(b *testing.B)    { runExperiment(b, "fig3") }
func BenchmarkFig04_PowerEfficiency(b *testing.B)  { runExperiment(b, "fig4") }
func BenchmarkFig05_InsDel(b *testing.B)           { runExperiment(b, "fig5") }
func BenchmarkFig06_PutHeavy(b *testing.B)         { runExperiment(b, "fig6") }
func BenchmarkFig07_Population(b *testing.B)       { runExperiment(b, "fig7") }
func BenchmarkFig08_ResizeTimeline(b *testing.B)   { runExperiment(b, "fig8") }
func BenchmarkOccupancy(b *testing.B)              { runExperiment(b, "occupancy") }
func BenchmarkFig09_ValueSize(b *testing.B)        { runExperiment(b, "fig9") }
func BenchmarkFig10_KeySize(b *testing.B)          { runExperiment(b, "fig10") }
func BenchmarkFig11_IndexSize(b *testing.B)        { runExperiment(b, "fig11") }
func BenchmarkFig12_BatchSize(b *testing.B)        { runExperiment(b, "fig12") }
func BenchmarkFig13_Skew(b *testing.B)             { runExperiment(b, "fig13") }
func BenchmarkFig14_Features(b *testing.B)         { runExperiment(b, "fig14") }
func BenchmarkFig15_Latency(b *testing.B)          { runExperiment(b, "fig15") }
func BenchmarkFig16_SingleThread(b *testing.B)     { runExperiment(b, "fig16") }
func BenchmarkCXLEmulation(b *testing.B)           { runExperiment(b, "cxl") }
func BenchmarkFig17_LockManager(b *testing.B)      { runExperiment(b, "fig17") }
func BenchmarkFig18_YCSB(b *testing.B)             { runExperiment(b, "fig18") }
func BenchmarkFig19_OLTP(b *testing.B)             { runExperiment(b, "fig19") }
func BenchmarkFig20_HashJoin(b *testing.B)         { runExperiment(b, "fig20") }
func BenchmarkTable04_OLTPCharacter(b *testing.B)  { runExperiment(b, "table4") }
func BenchmarkTable05_ComparisonSumm(b *testing.B) { runExperiment(b, "table5") }
func BenchmarkAblations(b *testing.B)              { runExperiment(b, "ablations") }

// BenchmarkExec measures the sliding-window batch pipeline on an
// out-of-LLC table (1M keys over a 64 MiB bin array): batch sizes from
// well-inside to far-beyond the window, crossed with window sizes, for both
// the Inlined Exec engine and the Allocator-mode GetKVBatch two-level
// pipeline. ns/op is per request, not per batch.
func BenchmarkExec(b *testing.B) {
	const keys = 1 << 20
	windows := []struct {
		name string
		w    int
	}{
		{"8", 8},
		{"16", 16}, // PrefetchWindow=0 default
		{"32", 32},
	}
	batches := []int{8, 64, 512, 4096}

	for _, wc := range windows {
		b.Run("w="+wc.name, func(b *testing.B) {
			// Inlined-mode engine.
			t := MustNew(Config{Bins: keys, PrefetchWindow: wc.w, MaxThreads: 8})
			h := t.MustHandle()
			for k := uint64(0); k < keys; k++ {
				if _, err := h.Insert(k, k+1); err != nil {
					b.Fatal(err)
				}
			}
			for _, bs := range batches {
				b.Run(fmt.Sprintf("inlined/b=%d", bs), func(b *testing.B) {
					ops := make([]Op, bs)
					x := uint64(1)
					b.ResetTimer()
					for i := 0; i < b.N; i += bs {
						for j := range ops {
							x ^= x << 13
							x ^= x >> 7
							x ^= x << 17
							ops[j] = Op{Kind: OpGet, Key: x % keys}
						}
						h.Exec(ops, false)
					}
				})
			}

			// Allocator-mode two-level pipeline.
			kt := MustNew(Config{Mode: Allocator, Bins: keys, PrefetchWindow: wc.w, MaxThreads: 8, ValueSize: 8})
			kh := kt.MustHandle()
			var kb [8]byte
			for k := uint64(0); k < keys; k++ {
				binary.LittleEndian.PutUint64(kb[:], k)
				if err := kh.InsertKV(0, kb[:], kb[:]); err != nil {
					b.Fatal(err)
				}
			}
			for _, bs := range batches {
				b.Run(fmt.Sprintf("kv/b=%d", bs), func(b *testing.B) {
					reqs := make([]KVGet, bs)
					keyBuf := make([]byte, 8*bs)
					x := uint64(1)
					b.ResetTimer()
					for i := 0; i < b.N; i += bs {
						for j := range reqs {
							x ^= x << 13
							x ^= x >> 7
							x ^= x << 17
							kb := keyBuf[8*j : 8*j+8]
							binary.LittleEndian.PutUint64(kb, x%keys)
							reqs[j] = KVGet{Key: kb}
						}
						kh.GetKVBatch(reqs)
					}
				})
			}
		})
	}
}

// BenchmarkPipeline measures the streaming Pipeline API on the same
// out-of-LLC geometry as BenchmarkExec (1M keys, 64 MiB bin array):
// uniform random Gets enter one at a time and complete through OnComplete
// once they fall a window behind the enqueue cursor. Work arrives in
// bursts of 4096 — BenchmarkExec's deepest batch — but the pipeline is
// deliberately NOT flushed between bursts, so the window stays primed
// across burst boundaries. ns/op is per request; staying within 5% of
// BenchmarkExec's inlined ns/op at the same window is the API-overhead
// target, for both the Inlined engine and the Allocator-mode two-level
// pipeline.
func BenchmarkPipeline(b *testing.B) {
	const keys = 1 << 20
	const burst = 4096
	// One table pair serves every window: unlike Config.PrefetchWindow,
	// the pipeline window is per-pipeline state.
	t := MustNew(Config{Bins: keys, MaxThreads: 8})
	h := t.MustHandle()
	for k := uint64(0); k < keys; k++ {
		if _, err := h.Insert(k, k+1); err != nil {
			b.Fatal(err)
		}
	}
	kt := MustNew(Config{Mode: Allocator, Bins: keys, MaxThreads: 8, ValueSize: 8})
	kh := kt.MustHandle()
	var kbuf [8]byte
	for k := uint64(0); k < keys; k++ {
		binary.LittleEndian.PutUint64(kbuf[:], k)
		if err := kh.InsertKV(0, kbuf[:], kbuf[:]); err != nil {
			b.Fatal(err)
		}
	}

	for _, w := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("w=%d/inlined/b=%d", w, burst), func(b *testing.B) {
			misses := 0
			pl := h.Pipeline(PipelineOpts{Window: w, OnComplete: func(op *Op) {
				if !op.OK {
					misses++
				}
			}})
			x := uint64(1)
			b.ResetTimer()
			for i := 0; i < b.N; i += burst {
				for j := 0; j < burst; j++ {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
					pl.Get(x % keys)
				}
			}
			pl.Flush()
			b.StopTimer()
			if misses != 0 {
				b.Fatalf("%d misses on a fully populated table", misses)
			}
		})

		b.Run(fmt.Sprintf("w=%d/kv/b=%d", w, burst), func(b *testing.B) {
			misses := 0
			pl := kh.KVPipeline(KVPipelineOpts{Window: w, OnComplete: func(r *KVGet) {
				if !r.OK {
					misses++
				}
			}})
			// Per-slot key storage: a key must stay valid until its lookup
			// completes, a window (< burst) later.
			keyBuf := make([]byte, 8*burst)
			x := uint64(1)
			b.ResetTimer()
			for i := 0; i < b.N; i += burst {
				for j := 0; j < burst; j++ {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
					kb := keyBuf[8*j : 8*j+8]
					binary.LittleEndian.PutUint64(kb, x%keys)
					pl.Get(0, kb)
				}
			}
			pl.Flush()
			b.StopTimer()
			if misses != 0 {
				b.Fatalf("%d misses on a fully populated table", misses)
			}
		})
	}
}

// BenchmarkPopulate loads 2^22 keys into a resizable table that starts at
// 2^16 bins, through Store.Pipe at window 16 from one loader, so the
// resize count and the keys moved repeat exactly. minflt/key is the
// populate's minor page faults per key: on 4 KiB pages every page each new
// index touches faults once, on 2 MiB pages one fault maps 512 of them.
func BenchmarkPopulate(b *testing.B) {
	const keys = 1 << 22
	var faults, resizes, moved uint64
	failed := 0
	_, countsFaults := minorFaults()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		runtime.GC()
		f0, _ := minorFaults()
		b.StartTimer()
		t := MustNew(Config{Bins: 1 << 16, Resizable: true})
		s := t.MustStore()
		p, err := s.Pipe(PipeOpts{Window: 16, OnComplete: func(c Completion) {
			if !c.OK {
				failed++
			}
		}})
		if err != nil {
			b.Fatal(err)
		}
		for k := uint64(1); k <= keys; k++ {
			p.Insert(k, k)
		}
		p.Close()
		b.StopTimer()
		f1, _ := minorFaults()
		faults += f1 - f0
		st := t.Stats()
		resizes += st.Resizes
		moved += st.KeysMoved
		s.Close()
		b.StartTimer()
	}
	if failed != 0 {
		b.Fatalf("%d inserts failed", failed)
	}
	n := float64(b.N)
	if countsFaults {
		b.ReportMetric(float64(faults)/n/keys, "minflt/key")
	}
	b.ReportMetric(float64(resizes)/n, "resizes")
	b.ReportMetric(float64(moved)/n, "keys_moved")
}

// Micro-benchmarks of the public API hot paths, complementing the
// figure-level harnesses above.

func BenchmarkOpGet(b *testing.B) {
	t := MustNew(Config{Bins: 1 << 18, MaxThreads: 64})
	h := t.MustHandle()
	const keys = 1 << 17
	for k := uint64(0); k < keys; k++ {
		h.Insert(k, k)
	}
	b.ResetTimer()
	x := uint64(1)
	for i := 0; i < b.N; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		h.Get(x % keys)
	}
}

func BenchmarkOpGetBatched(b *testing.B) {
	t := MustNew(Config{Bins: 1 << 18, MaxThreads: 64})
	h := t.MustHandle()
	const keys = 1 << 17
	for k := uint64(0); k < keys; k++ {
		h.Insert(k, k)
	}
	ops := make([]Op, 16)
	b.ResetTimer()
	x := uint64(1)
	for i := 0; i < b.N; i += len(ops) {
		for j := range ops {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			ops[j] = Op{Kind: OpGet, Key: x % keys}
		}
		h.Exec(ops, false)
	}
}

func BenchmarkOpInsertDelete(b *testing.B) {
	t := MustNew(Config{Bins: 1 << 16, MaxThreads: 64})
	h := t.MustHandle()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := uint64(i)
		h.Insert(k, k)
		h.Delete(k)
	}
}

func BenchmarkOpPut(b *testing.B) {
	t := MustNew(Config{Bins: 1 << 16, MaxThreads: 64})
	h := t.MustHandle()
	const keys = 1 << 14
	for k := uint64(0); k < keys; k++ {
		h.Insert(k, k)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Put(uint64(i)%keys, uint64(i))
	}
}

// BenchmarkKVSet prices an Allocator-mode write of a present key on an
// EpochGC arena table of 2^14 resident 10-byte keys: replace is one
// UpsertKVHashed (the Put body: a fresh block published by one
// double-word CAS, the old one retired), insdel the delete-then-insert
// pair. The handle advances its epoch every 64 writes, as a serving
// connection does once per burst, so retired blocks are recycled.
func BenchmarkKVSet(b *testing.B) {
	const keys = 1 << 14
	t := MustNew(Config{Mode: Allocator, Bins: 1 << 14, ValueSize: 8, EpochGC: true, MaxThreads: 8})
	h := t.MustHandle()
	ks := make([][]byte, keys)
	hs := make([]uint64, keys)
	val := make([]byte, 8)
	for i := range ks {
		ks[i] = []byte(fmt.Sprintf("key-%06d", i))
		hs[i] = t.HashOfKV(0, ks[i])
		if err := h.InsertKVHashed(0, ks[i], val, hs[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("replace", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			k := i % keys
			binary.LittleEndian.PutUint64(val, uint64(i))
			if err := h.UpsertKVHashed(0, ks[k], val, hs[k], 0); err != nil {
				b.Fatal(err)
			}
			if i%64 == 63 {
				h.AdvanceEpoch()
			}
		}
	})
	b.Run("insdel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			k := i % keys
			binary.LittleEndian.PutUint64(val, uint64(i))
			h.DeleteKVHashed(0, ks[k], hs[k])
			if err := h.InsertKVHashed(0, ks[k], val, hs[k]); err != nil {
				b.Fatal(err)
			}
			if i%64 == 63 {
				h.AdvanceEpoch()
			}
		}
	})
}

func BenchmarkOpGetParallel(b *testing.B) {
	t := MustNew(Config{Bins: 1 << 18, MaxThreads: 4096})
	h := t.MustHandle()
	const keys = 1 << 17
	for k := uint64(0); k < keys; k++ {
		h.Insert(k, k)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		hw := t.MustHandle()
		x := uint64(1)
		for pb.Next() {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			hw.Get(x % keys)
		}
	})
}

package core

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/alloc"
)

// countingAlloc counts the Bytes calls made on the allocator it wraps.
type countingAlloc struct {
	alloc.Allocator
	bytes int
}

func (c *countingAlloc) Bytes(r alloc.Ref, n int) []byte {
	c.bytes++
	return c.Allocator.Bytes(r, n)
}

// TestKVLookupBlockReads pins how often a lookup asks the allocator for a
// view of a 16-byte key's block: a pipelined hit three times (the block
// prefetch in locate, then pairBlock's header and whole-block views at
// completion), a synchronous GetKV four (pairBlock in the key compare, and
// again for the value). The keys' first 8 bytes differ, except for one
// pair planted in the same bin as another key with the same 8-byte prefix:
// a pipelined lookup of it picks the other key's slot first, fails the key
// compare and falls back to the synchronous lookup, which still finds it.
func TestKVLookupBlockReads(t *testing.T) {
	const n = 64
	ca := &countingAlloc{Allocator: alloc.NewArena()}
	tb := MustNew(Config{Mode: Allocator, Bins: 256, VariableKV: true, Alloc: ca})
	h := tb.MustHandle()
	defer h.Close()
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = fmt.Appendf(nil, "p%07d-k%06d", i, i)
		if err := h.InsertKV(0, keys[i], []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// A key sharing keys[0]'s 8-byte prefix and bin, inserted after it.
	ix := tb.current.Load()
	bin := ix.binOf(tb.HashOfKV(0, keys[0]))
	var twin []byte
	for j := 0; twin == nil; j++ {
		if k := fmt.Appendf(nil, "p0000000-z%06d", j); ix.binOf(tb.HashOfKV(0, k)) == bin {
			twin = k
		}
	}
	if err := h.InsertKV(0, twin, []byte{'z'}); err != nil {
		t.Fatal(err)
	}

	var got [][]byte
	pl := h.KVPipeline(KVPipelineOpts{Window: 4, OnComplete: func(r *KVGet) {
		if !r.OK {
			t.Fatalf("pipelined lookup of %q missed", r.Key)
		}
		got = append(got, append([]byte(nil), r.Value...))
	}})
	ca.bytes = 0
	for _, k := range keys {
		pl.Get(0, k)
	}
	pl.Flush()
	if ca.bytes != 3*n {
		t.Errorf("%d pipelined hits made %d Bytes calls, want %d (3 each)", n, ca.bytes, 3*n)
	}
	ca.bytes = 0
	for i, k := range keys {
		if v, ok := h.GetKV(0, k); !ok || !bytes.Equal(v, got[i]) || v[0] != byte(i) {
			t.Fatalf("GetKV(%q) = %q, %v; pipelined %q", k, v, ok, got[i])
		}
	}
	if ca.bytes != 4*n {
		t.Errorf("%d GetKV hits made %d Bytes calls, want %d (4 each)", n, ca.bytes, 4*n)
	}

	ca.bytes = 0
	pl.Get(0, twin)
	pl.Flush()
	if last := got[len(got)-1]; len(got) != n+1 || !bytes.Equal(last, []byte{'z'}) {
		t.Fatalf("pipelined lookup of %q read %q", twin, last)
	}
	if ca.bytes <= 3 {
		t.Errorf("lookup of %q made %d Bytes calls: no fallback past the prefix twin", twin, ca.bytes)
	}
	pl.Close()
}

// TestLookupSpanCoversReads: the lines a pipelined lookup prefetches for
// its candidate block cover everything completion reads there — the
// header, a big key, the value's first min(64, len) bytes — and no line
// past the most the lookup can know it will read: on a VariableKV table
// the value's length is in the header, so the span takes the value to be
// at least 64 bytes; on a fixed-size table it is ValueSize. Every 8-byte
// aligned block start in a line (the arena's blocks start 8 bytes past a
// 16-byte boundary) is checked, with inline keys of 0–8 bytes, big keys
// of 9–64 and values of 0–200 bytes. The lines are those holding a byte of
// [start, start+span), which cpuops.TestPrefetchRangeLines pins the range
// routine to.
func TestLookupSpanCoversReads(t *testing.T) {
	const line = 64
	for _, variable := range []bool{true, false} {
		for vlen := 0; vlen <= 200; vlen++ {
			tb := &Table{cfg: Config{Mode: Allocator, VariableKV: variable, ValueSize: vlen}}
			for klen := 0; klen <= 64; klen++ {
				span := int(tb.lookupSpan(klen))
				// The block's layout as writeBlock lays it out.
				valOff := 0
				if variable || klen > 8 {
					valOff = kvBlockHeader
					if klen > 8 {
						valOff += klen
					}
				}
				need := valOff + min(vlen, line)
				most := need
				if variable {
					most = valOff + line
				}
				for start := 0; start < line; start += 8 {
					// lines prefetched and lines wanted, as [first, last] line
					// numbers of the bytes [start, start+n); none when n == 0.
					lines := func(n int) (int, int) { return start / line, (start + n - 1) / line }
					where := fmt.Sprintf("VariableKV=%v vlen=%d klen=%d start=%d span=%d", variable, vlen, klen, start, span)
					if need == 0 {
						if span != 0 {
							t.Fatalf("%s: nothing to read, yet a span", where)
						}
						continue
					}
					first, last := lines(span)
					nFirst, nLast := lines(need)
					if span <= 0 || first > nFirst || last < nLast {
						t.Fatalf("%s: prefetches lines %d..%d, completion reads %d..%d", where, first, last, nFirst, nLast)
					}
					if _, mLast := lines(most); last > mLast {
						t.Fatalf("%s: prefetches line %d, past line %d, the last a lookup can know it reads", where, last, mLast)
					}
				}
			}
		}
	}
}

// BenchmarkKVPipelineGet prices a pipelined GET on resp_kv's table and key
// shape: a kv-mode table (Allocator, VariableKV, Namespaces, EpochGC) of
// 2^20 pairs under 16-byte hex keys, window 16, uniform reads, each value
// copied out at completion as a codec's reply does. Keys are written into
// a small ring as they are drawn, so the lookup, not the key, is what
// misses the cache. The sub-benchmarks vary the value: 8 bytes sits in the
// block's first line with the header and key, 64 reaches the next line
// (or two), 200 runs past what a lookup prefetches.
func BenchmarkKVPipelineGet(b *testing.B) {
	const (
		bits   = 20
		keys   = 1 << bits
		window = 16
		ring   = 64 // > window+1 keys in flight
	)
	hexKey := func(dst []byte, i uint64) {
		const hex = "0123456789abcdef"
		k := benchMix64(i)
		for j := 15; j >= 0; j-- {
			dst[j] = hex[k&15]
			k >>= 4
		}
	}
	for _, vlen := range []int{8, 64, 200} {
		var h *Handle // loaded by the first run b.Run makes, shared by the rest
		var kbuf [ring][16]byte
		b.Run(fmt.Sprintf("v=%d", vlen), func(b *testing.B) {
			if h == nil {
				h = MustNew(Config{
					Mode: Allocator, Bins: keys / 2, Resizable: true,
					VariableKV: true, Namespaces: true, EpochGC: true,
				}).MustHandle()
				val := make([]byte, vlen)
				for i := uint64(0); i < keys; i++ {
					hexKey(kbuf[0][:], i)
					if err := h.InsertKV(0, kbuf[0][:], val); err != nil {
						b.Fatal(err)
					}
				}
				runtime.GC()
			}
			misses := 0
			out := make([]byte, 0, vlen)
			pl := h.KVPipeline(KVPipelineOpts{Window: window, OnComplete: func(r *KVGet) {
				if !r.OK {
					misses++
				}
				out = append(out[:0], r.Value...)
			}})
			r := uint64(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r = r*6364136223846793005 + 1442695040888963407
				k := kbuf[i%ring][:]
				hexKey(k, r>>(64-bits))
				pl.Get(0, k)
			}
			pl.Flush()
			b.StopTimer()
			if misses != 0 {
				b.Fatalf("%d misses on a fully populated table", misses)
			}
		})
		if h != nil {
			h.Close()
		}
	}
}

// benchMix64 is SplitMix64's finalizer: a bijection that spreads
// consecutive integers over the whole word.
func benchMix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

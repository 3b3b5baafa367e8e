package cpuops

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"unsafe"
)

// slot allocates a single 16-byte-aligned 2-word slot.
func slot(t *testing.T) *[2]uint64 {
	t.Helper()
	w := AlignedUint64s(2, 16)
	p := (*[2]uint64)(unsafe.Pointer(&w[0]))
	if !IsAligned(unsafe.Pointer(p), 16) {
		t.Fatal("slot not 16-byte aligned")
	}
	return p
}

func TestCAS128SuccessAndFailure(t *testing.T) {
	impls := []struct {
		name string
		f    func(p *[2]uint64, o0, o1, n0, n1 uint64) bool
	}{
		{"public", CompareAndSwap128},
		{"fallback", casFallback},
	}
	for _, impl := range impls {
		t.Run(impl.name, func(t *testing.T) {
			p := slot(t)
			p[0], p[1] = 10, 20
			if !impl.f(p, 10, 20, 30, 40) {
				t.Fatal("expected CAS success")
			}
			if p[0] != 30 || p[1] != 40 {
				t.Fatalf("slot = %v, want [30 40]", *p)
			}
			if impl.f(p, 10, 20, 1, 1) {
				t.Fatal("expected CAS failure on stale expected values")
			}
			if p[0] != 30 || p[1] != 40 {
				t.Fatalf("failed CAS mutated slot: %v", *p)
			}
			// Partial matches must fail.
			if impl.f(p, 30, 999, 0, 0) || impl.f(p, 999, 40, 0, 0) {
				t.Fatal("CAS succeeded with only one word matching")
			}
		})
	}
}

func TestCAS128PropertySingleThread(t *testing.T) {
	p := slot(t)
	f := func(a, b, c, d uint64) bool {
		p[0], p[1] = a, b
		if !CompareAndSwap128(p, a, b, c, d) {
			return false
		}
		return p[0] == c && p[1] == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Concurrent counter: N goroutines increment both halves of the slot via
// CAS128. Both halves must end equal to the total increment count — the
// atomicity invariant a torn implementation would break.
func TestCAS128ConcurrentAtomicity(t *testing.T) {
	for _, impl := range []struct {
		name string
		f    func(p *[2]uint64, o0, o1, n0, n1 uint64) bool
	}{
		{"public", CompareAndSwap128},
		{"fallback", casFallback},
	} {
		t.Run(impl.name, func(t *testing.T) {
			p := slot(t)
			const perG = 20000
			workers := runtime.GOMAXPROCS(0)
			if workers > 8 {
				workers = 8
			}
			var wg sync.WaitGroup
			for g := 0; g < workers; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perG; i++ {
						for {
							a := atomic.LoadUint64(&p[0])
							b := atomic.LoadUint64(&p[1])
							if a != b {
								// The two loads are not one atomic snapshot:
								// another CAS can land between them. Retry;
								// real tearing would make the final total
								// check below fail.
								continue
							}
							if impl.f(p, a, b, a+1, b+1) {
								break
							}
						}
					}
				}()
			}
			wg.Wait()
			want := uint64(workers * perG)
			if p[0] != want || p[1] != want {
				t.Fatalf("slot = [%d %d], want [%d %d]", p[0], p[1], want, want)
			}
		})
	}
}

// Two goroutines fight over distinct slots that share a fallback stripe;
// progress must still be made (no deadlock) and values must stay coherent.
func TestCASFallbackStripeSharing(t *testing.T) {
	w := AlignedUint64s(4, 16)
	p1 := (*[2]uint64)(unsafe.Pointer(&w[0]))
	p2 := (*[2]uint64)(unsafe.Pointer(&w[2]))
	var wg sync.WaitGroup
	for _, p := range []*[2]uint64{p1, p2} {
		wg.Add(1)
		go func(p *[2]uint64) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				for {
					a := atomic.LoadUint64(&p[0])
					if casFallback(p, a, a, a+1, a+1) {
						break
					}
				}
			}
		}(p)
	}
	wg.Wait()
	if p1[0] != 5000 || p2[0] != 5000 {
		t.Fatalf("counters = %d, %d; want 5000, 5000", p1[0], p2[0])
	}
}

// TestCAS128AsmMatchesFallback cross-checks the amd64 assembly against the
// striped-lock fallback: for random slot states and operands, both
// implementations must agree on success/failure and leave the slot in the
// same state. Skipped on builds without the native path.
func TestCAS128AsmMatchesFallback(t *testing.T) {
	if !HasNativeCAS128() {
		t.Skip("no native CAS128 on this build")
	}
	pa, pf := slot(t), slot(t)
	f := func(s0, s1, o0, o1, n0, n1 uint64, matching bool) bool {
		if matching {
			// Half the cases exercise the success path exactly.
			o0, o1 = s0, s1
		}
		pa[0], pa[1] = s0, s1
		pf[0], pf[1] = s0, s1
		okA := cas128(pa, o0, o1, n0, n1)
		okF := casFallback(pf, o0, o1, n0, n1)
		return okA == okF && pa[0] == pf[0] && pa[1] == pf[1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestCAS128AsmConcurrentWithFallback drives the native asm and the public
// wrapper against the same slot from different goroutines; the both-halves-
// equal invariant must survive, proving the asm is a real LOCK CMPXCHG16B
// and not torn against itself.
func TestCAS128AsmConcurrentWithFallback(t *testing.T) {
	if !HasNativeCAS128() {
		t.Skip("no native CAS128 on this build")
	}
	p := slot(t)
	const perG = 20000
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				for {
					a := atomic.LoadUint64(&p[0])
					b := atomic.LoadUint64(&p[1])
					if a != b {
						// Two loads are not an atomic snapshot; retry.
						continue
					}
					if cas128(p, a, b, a+1, b+1) {
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	if want := uint64(4 * perG); p[0] != want || p[1] != want {
		t.Fatalf("slot = [%d %d], want [%d %d]", p[0], p[1], want, want)
	}
}

func TestAlignedUint64s(t *testing.T) {
	for _, align := range []uintptr{8, 16, 64, 128} {
		for _, n := range []int{1, 2, 7, 64, 1024} {
			s := AlignedUint64s(n, align)
			if len(s) != n {
				t.Fatalf("len = %d, want %d", len(s), n)
			}
			if !IsAligned(unsafe.Pointer(&s[0]), align) {
				t.Fatalf("align %d, n %d: base %p not aligned", align, n, &s[0])
			}
			// The slice must be fully writable.
			for i := range s {
				s[i] = uint64(i)
			}
		}
	}
}

func TestAlignedUint64sBadAlign(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-power-of-two alignment")
		}
	}()
	AlignedUint64s(8, 24)
}

func TestPrefetchDoesNotCrash(t *testing.T) {
	x := make([]uint64, 64)
	for i := range x {
		PrefetchUint64(&x[i])
	}
}

func TestHasNativeCAS128MatchesBuild(t *testing.T) {
	if runtime.GOARCH == "amd64" && !HasNativeCAS128() {
		t.Log("amd64 build without native CAS128 (purego tag?)")
	}
}

func BenchmarkCAS128Native(b *testing.B) {
	w := AlignedUint64s(2, 16)
	p := (*[2]uint64)(unsafe.Pointer(&w[0]))
	for i := 0; i < b.N; i++ {
		CompareAndSwap128(p, p[0], p[1], p[0]+1, p[1]+1)
	}
}

func BenchmarkCAS128Fallback(b *testing.B) {
	w := AlignedUint64s(2, 16)
	p := (*[2]uint64)(unsafe.Pointer(&w[0]))
	for i := 0; i < b.N; i++ {
		casFallback(p, p[0], p[1], p[0]+1, p[1]+1)
	}
}

// TestPrefetchRangeLines: the range routine prefetches exactly the lines
// holding a byte of [p, p+n) — the first through the last, none past it —
// for every start in a line and every length up to three lines and more.
// Builds without the assembly prefetch nothing.
func TestPrefetchRangeLines(t *testing.T) {
	w := AlignedUint64s(64, 64) // 512 bytes, line-aligned
	base := unsafe.Pointer(&w[0])
	for off := uintptr(0); off < 64; off++ {
		for n := uintptr(0); n <= 300; n++ {
			want := 0
			if n > 0 && hasAsm {
				want = int((off+n-1)/64 - off/64 + 1)
			}
			if got := prefetchRange(unsafe.Add(base, off), n); got != want {
				t.Fatalf("prefetchRange(line+%d, %d) = %d lines, want %d", off, n, got, want)
			}
		}
	}
}

// TestPrefetchRangeEdges: a zero length prefetches nothing, and a span
// that ends past its slice — what a reader covers before it knows the
// object's length — is accepted: a prefetch never faults.
func TestPrefetchRangeEdges(t *testing.T) {
	b := make([]byte, 16)
	PrefetchRange(unsafe.Pointer(&b[0]), 0)
	if got := prefetchRange(unsafe.Pointer(&b[0]), 0); got != 0 {
		t.Fatalf("zero length prefetched %d lines", got)
	}
	const n = 1 << 16
	PrefetchRange(unsafe.Pointer(&b[0]), n)
	off := uintptr(unsafe.Pointer(&b[0])) % 64
	want := 0
	if hasAsm {
		want = int((off+n-1)/64 - off/64 + 1)
	}
	if got := prefetchRange(unsafe.Pointer(&b[0]), n); got != want {
		t.Fatalf("a 64 KiB span from a 16-byte slice prefetched %d lines, want %d", got, want)
	}
}

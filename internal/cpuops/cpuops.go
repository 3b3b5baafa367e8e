// Package cpuops provides the three hardware primitives the DLHT paper
// relies on that portable Go lacks: a 128-bit (double-word) compare-and-swap
// used by Puts and by the resize transfer-key handoff (§3.2.4–3.2.5), a
// software-prefetch hint used by the batch engine (§3.3), and 2 MiB pages
// under the large arrays those prefetches land in (the paper runs on huge
// pages), so a prefetched miss does not first wait for a 4 KiB page walk.
//
// On amd64 the first two are implemented in assembly (LOCK CMPXCHG16B,
// PREFETCHT0). On other platforms, or with the `purego` build tag,
// CompareAndSwap128 falls back to a striped-spinlock emulation that is
// correct but slower, and Prefetch becomes a no-op — equivalent to the
// paper's DLHT-NoBatch configuration. Huge pages are transparent-huge-page
// advice on Linux (AdviseHugePages) and a no-op elsewhere.
package cpuops

import (
	"sync/atomic"
	"unsafe"
)

// HasNativeCAS128 reports whether CompareAndSwap128 compiles to a single
// LOCK CMPXCHG16B instruction on this build.
func HasNativeCAS128() bool { return hasAsm }

// CompareAndSwap128 atomically performs
//
//	if p[0] == old0 && p[1] == old1 { p[0], p[1] = new0, new1; return true }
//	return false
//
// p must be 16-byte aligned (see AlignedUint64s). This is the paper's
// double-word CAS on a 16-byte slot: p[0] is the key word, p[1] the value
// word.
func CompareAndSwap128(p *[2]uint64, old0, old1, new0, new1 uint64) bool {
	if hasAsm {
		raceRelease(p)
		return cas128(p, old0, old1, new0, new1)
	}
	return casFallback(p, old0, old1, new0, new1)
}

// Prefetch issues a best-effort prefetch of the cache line containing p
// into all cache levels (PREFETCHT0). A no-op on non-amd64 builds.
func Prefetch(p unsafe.Pointer) {
	if hasAsm {
		prefetch(p)
	}
}

// PrefetchUint64 prefetches the cache line containing the given word.
func PrefetchUint64(p *uint64) { Prefetch(unsafe.Pointer(p)) }

// ---------------------------------------------------------------------------
// Striped-spinlock fallback. Always compiled (and unit-tested) so the
// portable path stays correct even though amd64 builds never take it.
// ---------------------------------------------------------------------------

const casStripes = 64 // power of two

// casLocks are word-sized spinlocks, one per stripe, padded to avoid false
// sharing between stripes.
var casLocks [casStripes]struct {
	state atomic.Uint32
	_     [60]byte
}

func stripeFor(p *[2]uint64) *atomic.Uint32 {
	// Mix the address; slots are 16-byte apart so shift past the low bits.
	a := uintptr(unsafe.Pointer(p)) >> 4
	a ^= a >> 7
	return &casLocks[a&(casStripes-1)].state
}

// casFallback emulates the 128-bit CAS under a striped spinlock. All slot
// accesses inside the critical section use atomic loads/stores so that
// concurrent seqlock-style readers remain race-free.
func casFallback(p *[2]uint64, old0, old1, new0, new1 uint64) bool {
	l := stripeFor(p)
	for !l.CompareAndSwap(0, 1) {
		// Spin; critical section is a handful of instructions.
	}
	ok := atomic.LoadUint64(&p[0]) == old0 && atomic.LoadUint64(&p[1]) == old1
	if ok {
		atomic.StoreUint64(&p[0], new0)
		atomic.StoreUint64(&p[1], new1)
	}
	l.Store(0)
	return ok
}

// ---------------------------------------------------------------------------
// Aligned allocation
// ---------------------------------------------------------------------------

// AlignedUint64s returns a word slice of length n whose backing array is
// aligned to the given power-of-two byte boundary. CMPXCHG16B requires its
// operand to be 16-byte aligned; bucket arrays are allocated through this
// helper so that every 16-byte slot starts on an aligned boundary. Arrays
// spanning a whole 2 MiB page get huge pages (AdviseHugePages).
func AlignedUint64s(n int, align uintptr) []uint64 {
	if align == 0 || align&(align-1) != 0 {
		panic("cpuops: alignment must be a power of two")
	}
	pad := int(align / 8)
	if pad == 0 {
		pad = 1
	}
	raw := make([]uint64, n+pad)
	AdviseHugePages(unsafe.Pointer(&raw[0]), uintptr(len(raw))*8)
	base := uintptr(unsafe.Pointer(&raw[0]))
	off := 0
	if rem := base & (align - 1); rem != 0 {
		off = int((align - rem) / 8)
	}
	return raw[off : off+n : off+n]
}

// IsAligned reports whether p is aligned to the given power-of-two boundary.
func IsAligned(p unsafe.Pointer, align uintptr) bool {
	return uintptr(p)&(align-1) == 0
}

// Package alloc provides the out-of-line memory substrate for DLHT's
// Allocator mode (§3.1 mode 2). The paper links mimalloc with 2 MB huge
// pages; Go cannot link a C allocator, and storing raw pointers inside the
// index's uint64 slots would hide them from the garbage collector. This
// package substitutes a size-class slab allocator that carves blocks out of
// large flat byte arenas on 2 MiB transparent huge pages (Linux; see
// cpuops.AdviseHugePages) and hands out 48-bit *references* (region id +
// offset) instead of pointers. References have the same shape as the
// paper's 48-bit virtual addresses, so the index can overload their 16 most
// significant bits for key-size tags and namespaces (§3.4.1–3.4.2) while
// the arena's backing slices stay reachable through the allocator itself.
package alloc

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/cpuops"
)

// Ref is a 48-bit reference to an allocated block: the high 16 of the low
// 48 bits select a region, the low 32 bits are a byte offset within it.
// Ref 0 is the nil reference (region 0's first block is never handed out).
type Ref uint64

// RefBits is the number of bits a Ref occupies. Callers may overload bits
// 48..63 of a uint64 carrying a Ref.
const RefBits = 48

// RefMask extracts the Ref portion of an overloaded word.
const RefMask = (uint64(1) << RefBits) - 1

// Nil is the zero reference.
const Nil Ref = 0

func makeRef(region uint16, off uint32) Ref {
	return Ref(uint64(region)<<32 | uint64(off))
}

func (r Ref) region() uint16 { return uint16(uint64(r) >> 32) }
func (r Ref) offset() uint32 { return uint32(uint64(r)) }

// IsNil reports whether the reference is the nil reference.
func (r Ref) IsNil() bool { return r == Nil }

// Allocator is the interface DLHT's Allocator mode consumes. Two
// implementations exist: the slab Arena (mimalloc analogue, the default)
// and the mutex-guarded Naive allocator (the "No mimalloc" ablation of
// Fig 14).
type Allocator interface {
	// Alloc returns a reference to a zero-initialized block of at least n
	// bytes together with its writable view.
	Alloc(n int) (Ref, []byte)
	// Bytes returns the n-byte view of a previously allocated block.
	Bytes(r Ref, n int) []byte
	// Free returns the block to the allocator. Double frees are undefined.
	Free(r Ref)
	// MaxAlloc returns the largest n Alloc can serve, or 0 when
	// unbounded. Callers relaying untrusted sizes (the network server's
	// KV path) gate on it instead of discovering the bound as a panic.
	MaxAlloc() int
	// Stats returns cumulative counters.
	Stats() Stats
}

// Stats reports allocator activity.
type Stats struct {
	Allocs   uint64 // number of Alloc calls
	Frees    uint64 // number of Free calls
	HeapUsed uint64 // bytes currently handed out (user sizes rounded to class)
	Regions  int    // number of backing regions (Arena only)
}

// ---------------------------------------------------------------------------
// Size classes
// ---------------------------------------------------------------------------

// Block layout: an 8-byte header precedes the user data; the Ref points at
// the user data. The header is one aligned word, read and written
// atomically: the size-class index in its low 8 bits and, while the block
// is free, the next free block's Ref in the 48 bits above. The link never
// touches user bytes, so a reader holding a stale Ref sees only what the
// block's owners wrote there, and a popper losing the race for a block
// reads a word nobody writes non-atomically.
const (
	blockHeader = 8
	classBits   = 8
	classMask   = 1<<classBits - 1
)

// sizeClasses are the user-visible block capacities. Chosen like mimalloc's
// small/medium bins: fine granularity at the small end (DLHT values start
// at 8 B), geometric growth after.
var sizeClasses = []int{
	8, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024,
	1536, 2048, 3072, 4096, 6144, 8192, 12288, 16384, 24576, 32768, 65536,
}

// MaxBlock is the largest allocation the Arena serves.
const MaxBlock = 65536

// smallMax is the largest request classFor answers from its table; from
// class1024 on the classes alternate 3·2^k and 2^(k+2), which bits.Len
// resolves.
const (
	smallMax  = 1024
	class1024 = 13
)

// smallClass maps (n+7)/8 to the class index for n <= smallMax. Every
// class up to smallMax is a multiple of 8, so all n sharing an entry share
// a class.
var smallClass = func() (t [smallMax/8 + 1]uint8) {
	cls := 0
	for i := range t {
		for sizeClasses[cls] < i*8 {
			cls++
		}
		t[i] = uint8(cls)
	}
	return t
}()

// classFor returns the smallest class index whose capacity fits n, or -1
// when n exceeds the largest class.
func classFor(n int) int {
	if n <= smallMax {
		if n < 0 {
			n = 0
		}
		return int(smallClass[(n+7)/8])
	}
	if n > MaxBlock {
		return -1
	}
	k := bits.Len(uint(n - 1)) // 2^(k-1) < n <= 2^k, k >= 11
	cls := class1024 + 2*(k-10)
	if n <= 3<<(k-2) {
		cls--
	}
	if cls >= len(sizeClasses) {
		// The last step is 32768 -> 65536: there is no 49152 class.
		cls = len(sizeClasses) - 1
	}
	return cls
}

// ---------------------------------------------------------------------------
// Arena
// ---------------------------------------------------------------------------

const (
	defaultRegionSize = 4 << 20 // 4 MiB: at least one whole 2 MiB huge page
	maxRegions        = 1 << 16
)

// Arena is the slab allocator. Allocation takes a lock-free pop from the
// class's free list; on miss it bump-allocates from the current region
// under a short mutex. Free is a lock-free push.
type Arena struct {
	regionSize uint32

	// regions is a copy-on-write table: growth (rare) copies the slice and
	// publishes it atomically, so block() is a wait-free two-load lookup.
	regions  atomic.Pointer[[][]byte]
	mu       sync.Mutex // serializes region growth and the bump pointer
	curBump  uint32     // next free byte in the newest region
	curIdx   uint16     // index of the newest region
	allocs   atomic.Uint64
	frees    atomic.Uint64
	heapUsed atomic.Uint64

	// Per-class Treiber stacks. The head packs a 16-bit ABA generation tag
	// above the 48-bit Ref of the first free block.
	freeHeads []paddedHead
}

type paddedHead struct {
	head atomic.Uint64
	_    [56]byte
}

// Option configures an Arena.
type Option func(*Arena)

// WithRegionSize sets the size of each backing region (default 4 MiB).
func WithRegionSize(n int) Option {
	return func(a *Arena) {
		if n < 1<<16 {
			n = 1 << 16
		}
		a.regionSize = uint32(n)
	}
}

// NewArena creates an empty arena.
func NewArena(opts ...Option) *Arena {
	a := &Arena{
		regionSize: defaultRegionSize,
		freeHeads:  make([]paddedHead, len(sizeClasses)),
	}
	for _, o := range opts {
		o(a)
	}
	// Region 0 starts with a burned block so that Ref 0 is never returned.
	regions := [][]byte{a.newRegion()}
	a.regions.Store(&regions)
	a.curBump = blockHeader + 8
	a.curIdx = 0
	return a
}

// newRegion allocates one zeroed backing region on huge pages.
func (a *Arena) newRegion() []byte {
	r := make([]byte, a.regionSize)
	cpuops.AdviseHugePages(unsafe.Pointer(&r[0]), uintptr(len(r)))
	return r
}

func packHead(tag uint16, r Ref) uint64 { return uint64(tag)<<48 | uint64(r) }
func unpackHead(h uint64) (uint16, Ref) { return uint16(h >> 48), Ref(h & RefMask) }

// Alloc implements Allocator.
func (a *Arena) Alloc(n int) (Ref, []byte) {
	cls := classFor(n)
	if cls < 0 {
		panic(fmt.Sprintf("alloc: request %d exceeds MaxBlock %d", n, MaxBlock))
	}
	a.allocs.Add(1)
	a.heapUsed.Add(uint64(sizeClasses[cls]))
	// Fast path: pop the class free list.
	h := &a.freeHeads[cls].head
	for {
		old := h.Load()
		tag, ref := unpackHead(old)
		if ref.IsNil() {
			break
		}
		next := Ref(atomic.LoadUint64(a.header(ref)) >> classBits)
		if h.CompareAndSwap(old, packHead(tag+1, next)) {
			user := a.block(ref, n)
			clear(user)
			return ref, user
		}
	}
	// Slow path: bump allocate.
	return a.bumpAlloc(cls, n)
}

func (a *Arena) bumpAlloc(cls, n int) (Ref, []byte) {
	need := uint32(blockHeader + sizeClasses[cls])
	// Keep every block 16-byte aligned so out-of-line values never straddle
	// a header word and batch prefetches hit whole lines.
	need = (need + 15) &^ 15
	a.mu.Lock()
	if a.curBump+need > a.regionSize {
		old := *a.regions.Load()
		if len(old) >= maxRegions {
			a.mu.Unlock()
			panic("alloc: arena exhausted (64K regions)")
		}
		grown := make([][]byte, len(old)+1)
		copy(grown, old)
		grown[len(old)] = a.newRegion()
		a.regions.Store(&grown)
		a.curIdx = uint16(len(grown) - 1)
		a.curBump = 0
	}
	off := a.curBump
	a.curBump += need
	region := a.curIdx
	regions := *a.regions.Load()
	a.mu.Unlock()

	ref := makeRef(region, off+blockHeader)
	atomic.StoreUint64((*uint64)(unsafe.Pointer(&regions[region][off])), uint64(cls))
	return ref, a.block(ref, n)
}

// header returns the address of r's header word. Regions are word-aligned
// and every block starts on a 16-byte boundary, so the word is aligned.
func (a *Arena) header(r Ref) *uint64 {
	region := (*a.regions.Load())[r.region()]
	return (*uint64)(unsafe.Pointer(&region[r.offset()-blockHeader]))
}

// Bytes implements Allocator.
func (a *Arena) Bytes(r Ref, n int) []byte { return a.block(r, n) }

// block returns the user view of a block without touching its header. It is
// wait-free: the region table is immutable once published, and any Ref a
// caller holds was created after its region was published.
func (a *Arena) block(r Ref, n int) []byte {
	reg := r.region()
	off := r.offset()
	region := (*a.regions.Load())[reg]
	return region[off : off+uint32(n) : off+uint32(n)]
}

// Free implements Allocator.
func (a *Arena) Free(r Ref) {
	if r.IsNil() {
		return
	}
	hdr := a.header(r)
	cls := int(atomic.LoadUint64(hdr) & classMask)
	if cls >= len(sizeClasses) {
		panic(fmt.Sprintf("alloc: corrupt block header (class %d)", cls))
	}
	a.frees.Add(1)
	a.heapUsed.Add(^uint64(sizeClasses[cls] - 1)) // subtract
	h := &a.freeHeads[cls].head
	for {
		old := h.Load()
		tag, head := unpackHead(old)
		atomic.StoreUint64(hdr, uint64(cls)|uint64(head)<<classBits)
		if h.CompareAndSwap(old, packHead(tag+1, r)) {
			return
		}
	}
}

// MaxAlloc implements Allocator: the Arena serves at most MaxBlock bytes.
func (a *Arena) MaxAlloc() int { return MaxBlock }

// Stats implements Allocator.
func (a *Arena) Stats() Stats {
	regions := len(*a.regions.Load())
	return Stats{
		Allocs:   a.allocs.Load(),
		Frees:    a.frees.Load(),
		HeapUsed: a.heapUsed.Load(),
		Regions:  regions,
	}
}

// ---------------------------------------------------------------------------
// Naive allocator — the "No mimalloc" ablation (Fig 14)
// ---------------------------------------------------------------------------

// Naive is a mutex-guarded allocator that makes a fresh Go allocation per
// block, standing in for the libc malloc configuration of Fig 14. It is
// intentionally slow under contention.
type Naive struct {
	mu     sync.Mutex
	blocks map[Ref][]byte
	next   uint64
	allocs uint64
	frees  uint64
	used   uint64
}

// NewNaive creates a Naive allocator.
func NewNaive() *Naive {
	return &Naive{blocks: make(map[Ref][]byte), next: 1}
}

// Alloc implements Allocator.
func (m *Naive) Alloc(n int) (Ref, []byte) {
	b := make([]byte, n)
	m.mu.Lock()
	r := Ref(m.next & RefMask)
	m.next++
	if m.next >= 1<<RefBits {
		m.next = 1
	}
	m.blocks[r] = b
	m.allocs++
	m.used += uint64(n)
	m.mu.Unlock()
	return r, b
}

// Bytes implements Allocator.
func (m *Naive) Bytes(r Ref, n int) []byte {
	m.mu.Lock()
	b := m.blocks[r]
	m.mu.Unlock()
	if b == nil {
		panic("alloc: Bytes on freed or unknown ref")
	}
	return b[:n]
}

// Free implements Allocator.
func (m *Naive) Free(r Ref) {
	if r.IsNil() {
		return
	}
	m.mu.Lock()
	if b, ok := m.blocks[r]; ok {
		m.used -= uint64(len(b))
		m.frees++
		delete(m.blocks, r)
	}
	m.mu.Unlock()
}

// MaxAlloc implements Allocator: fresh Go allocations have no block bound.
func (m *Naive) MaxAlloc() int { return 0 }

// Stats implements Allocator.
func (m *Naive) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{Allocs: m.allocs, Frees: m.frees, HeapUsed: m.used}
}

var (
	_ Allocator = (*Arena)(nil)
	_ Allocator = (*Naive)(nil)
)

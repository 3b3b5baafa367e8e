// Package leapfrog reproduces the Leapfrog map from Preshing's Junction
// library as the DLHT paper evaluates it: open addressing where each cell
// carries small delta links that let probes "leapfrog" directly between the
// cells of one hash chain instead of scanning every intermediate cell.
// Deletes blank the value but keep the cell in its chain (no reclamation),
// and the fixed-size variant fails inserts when chains cannot grow.
//
// Skeleton simplification: Gets follow delta chains lock-free exactly as in
// Junction; mutations serialize on a striped lock per home cell instead of
// Junction's lock-free link splicing. Leapfrog sits in the paper's
// sub-250 M req/s tier of Figure 3 (multiple dependent accesses, no
// prefetching), and its comparative standing is unchanged by this.
package leapfrog

import (
	"sync"
	"sync/atomic"

	"repro/internal/baselines"
	"repro/internal/cpuops"
	"repro/internal/hashfn"
)

const (
	emptyKey     = ^uint64(0)
	erasedVal    = ^uint64(0) // reserved value marking a deleted entry
	maxScan      = 512
	muStripes    = 1 << 10
	wordsPerCell = 4 // key, value, firstDelta, nextDelta
)

// Table is a Leapfrog-style map.
type Table struct {
	hash  hashfn.Func64
	cells []uint64
	mask  uint64
	mus   [muStripes]sync.Mutex
}

// New creates a Leapfrog map with at least the given cell count.
func New(cells uint64, hash hashfn.Kind) *Table {
	n := uint64(16)
	for n < cells {
		n <<= 1
	}
	t := &Table{
		hash:  hashfn.For64(hash),
		cells: cpuops.AlignedUint64s(int(n)*wordsPerCell, 64),
		mask:  n - 1,
	}
	for i := uint64(0); i < n; i++ {
		t.cells[i*wordsPerCell] = emptyKey
		t.cells[i*wordsPerCell+1] = erasedVal
	}
	return t
}

// Name implements baselines.Map.
func (t *Table) Name() string { return "Leapfrog" }

// Features implements baselines.Map.
func (t *Table) Features() baselines.Features {
	return baselines.Features{
		Addressing:       "open",
		LockFreeGets:     true,
		Puts:             "blocking",
		Inserts:          "blocking",
		DeletesReclaim:   false,
		DeletesSupported: true,
		Resizable:        false,
		Inlined:          true,
	}
}

func (t *Table) keyAddr(i uint64) *uint64   { return &t.cells[(i&t.mask)*wordsPerCell] }
func (t *Table) valAddr(i uint64) *uint64   { return &t.cells[(i&t.mask)*wordsPerCell+1] }
func (t *Table) firstAddr(i uint64) *uint64 { return &t.cells[(i&t.mask)*wordsPerCell+2] }
func (t *Table) nextAddr(i uint64) *uint64  { return &t.cells[(i&t.mask)*wordsPerCell+3] }

func (t *Table) mu(home uint64) *sync.Mutex { return &t.mus[home&(muStripes-1)] }

// find walks home's chain and returns the cell index holding key. When the
// key is absent it returns the chain's tail with found=false.
func (t *Table) find(home, key uint64) (idx uint64, found bool) {
	if atomic.LoadUint64(t.keyAddr(home)) == key {
		return home, true
	}
	i := home
	link := t.firstAddr(home)
	for {
		d := atomic.LoadUint64(link)
		if d == 0 {
			return i, false
		}
		i += d
		if atomic.LoadUint64(t.keyAddr(i)) == key {
			return i, true
		}
		link = t.nextAddr(i)
	}
}

// Get implements baselines.Map: lock-free chain walk, each hop a dependent
// memory access.
func (t *Table) Get(key uint64) (uint64, bool) {
	home := t.hash(key) & t.mask
	idx, found := t.find(home, key)
	if !found {
		return 0, false
	}
	v := atomic.LoadUint64(t.valAddr(idx))
	return v, v != erasedVal
}

// Insert implements baselines.Map.
func (t *Table) Insert(key, val uint64) bool {
	if val == erasedVal {
		val = erasedVal - 1
	}
	home := t.hash(key) & t.mask
	mu := t.mu(home)
	mu.Lock()
	defer mu.Unlock()
	// Claim the home cell directly when it is free. Inserts splicing into
	// other chains claim cells with a CAS under their own stripe lock, so
	// this claim is a CAS too. A free cell's value is erasedVal, so a Get
	// that finds the key before the value lands reads a miss.
	if atomic.CompareAndSwapUint64(t.keyAddr(home), emptyKey, key) {
		atomic.StoreUint64(t.valAddr(home), val)
		return true
	}
	tail, found := t.find(home, key)
	if found {
		// Revive an erased entry; fail on a live one.
		if atomic.LoadUint64(t.valAddr(tail)) != erasedVal {
			return false
		}
		atomic.StoreUint64(t.valAddr(tail), val)
		return true
	}
	// Scan forward from the tail for a free cell and splice it in. Cells
	// belong to whichever chain links them; claiming under our stripe lock
	// can race claims from other stripes, so claim with a CAS.
	for d := uint64(1); d < maxScan; d++ {
		cand := tail + d
		if atomic.LoadUint64(t.keyAddr(cand)) != emptyKey {
			continue
		}
		if !atomic.CompareAndSwapUint64(t.keyAddr(cand), emptyKey, key) {
			continue
		}
		atomic.StoreUint64(t.valAddr(cand), val)
		// Publish the link last: the value is in place before readers can
		// reach the cell through the chain. (Readers that guessed the cell
		// by key equality before the link existed still read a full value
		// because the value store precedes... the key claim does not; they
		// cannot guess the cell since probing is chain-based only.)
		link := t.nextAddr(tail)
		if tail == home {
			link = t.firstAddr(home)
		}
		atomic.StoreUint64(link, d)
		return true
	}
	return false
}

// Put implements baselines.Map.
func (t *Table) Put(key, val uint64) bool {
	if val == erasedVal {
		val = erasedVal - 1
	}
	home := t.hash(key) & t.mask
	mu := t.mu(home)
	mu.Lock()
	defer mu.Unlock()
	idx, found := t.find(home, key)
	if !found || atomic.LoadUint64(t.valAddr(idx)) == erasedVal {
		return false
	}
	atomic.StoreUint64(t.valAddr(idx), val)
	return true
}

// Delete implements baselines.Map: erases the value; the cell stays in its
// chain forever (no reclamation).
func (t *Table) Delete(key uint64) bool {
	home := t.hash(key) & t.mask
	mu := t.mu(home)
	mu.Lock()
	defer mu.Unlock()
	idx, found := t.find(home, key)
	if !found || atomic.LoadUint64(t.valAddr(idx)) == erasedVal {
		return false
	}
	atomic.StoreUint64(t.valAddr(idx), erasedVal)
	return true
}

var _ baselines.Map = (*Table)(nil)

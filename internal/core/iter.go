package core

import (
	"encoding/binary"
	"runtime"
	"sync/atomic"
)

// Iterator support (§3.4.4). The default iterator gives the weakly
// consistent snapshot the paper's clients prefer: non-blocking, no
// migration, each bin internally consistent but the whole traversal not a
// point-in-time cut. Snapshot gives the strongly consistent variant by
// stalling updates for the duration — the paper implements this with a
// same-size migration; stalling achieves the same "updates stop, Gets
// proceed" contract without copying the index.
//
// Every walk is resumable and runs one way: a Cursor, resolved against the
// index each step enters, names the bins still to visit. ScanStep (fixed
// tables) and RangeKVStep (Allocator-mode tables) are the two step bodies,
// and both read each bin through one walker, walkBin, which waits out a
// transfer, follows a migrated bin into its successors and retries a read
// until the bin's header validates; only the slot loops (readBin,
// readBinKV) differ. Range, RangeKV, Snapshot and Len are loops of steps,
// each step entering and leaving the index, so a long walk never holds a
// drained index reachable.

// Entry is one key-value pair produced by an iterator.
type Entry struct {
	Key   uint64
	Value uint64
}

// Cursor is the position of a resumable table walk (ScanStep,
// RangeKVStep). The zero value starts a pass. Bins is the bin count of the
// index the pass started on and Next the first of those bins not yet
// visited. Resize growth is multiplicative, so Bins divides every later bin
// count and old bin b is exactly current bins {b + j·Bins}: a cursor stays
// valid across any number of resizes, and a pass visits every key present
// throughout it exactly once.
type Cursor struct{ Bins, Next uint64 }

// walkStep is the per-step budget of the full-pass loops (Range, RangeKV).
const walkStep = 1 << 12

// resolve maps c onto ix, the index a step entered, and returns it with the
// fan-out factor: how many of ix's bins each cursor bin covers. A zero
// cursor adopts ix's geometry. A cursor whose geometry does not fit ix —
// one fabricated over the wire, or from a table that restarted smaller —
// comes back exhausted, so the step reports done and touches no bin; any
// other bin b + j·Bins it yields is below ix.numBins.
func (c Cursor) resolve(ix *index) (Cursor, uint64) {
	if c.Bins == 0 {
		return Cursor{Bins: ix.numBins}, 1
	}
	factor := ix.numBins / c.Bins
	if factor == 0 {
		c.Next = c.Bins
	}
	return c, factor
}

// Range iterates over all live entries, calling fn until it returns false.
// Weakly consistent: entries inserted or deleted concurrently may or may
// not be observed, but every returned pair was present at some point during
// the traversal, and each bin is read atomically (version-validated).
// Shadow entries are hidden, as everywhere. Range is a loop of ScanStep
// steps, and fn runs between them, outside any table operation.
func (h *Handle) Range(fn func(key, val uint64) bool) {
	var ents []Entry
	var cur Cursor
	for done := false; !done; {
		ents, cur, done = h.ScanStep(cur, walkStep, ents[:0])
		for _, e := range ents {
			if !fn(e.Key, e.Value) {
				return
			}
		}
	}
}

// binScan is a walk's scratch: the pairs of the bins read so far — fixed
// entries, or KV entries and the bytes they point into — and how to read
// them.
type binScan struct {
	ents []Entry
	kvs  []KVEntry
	buf  []byte
	kv   bool // read KV pairs (readBinKV) instead of fixed entries
	vals bool // KV pairs carry their values
}

// walkBin appends the live pairs of bin b to sc, read in one consistent
// pass: a read is kept only if the bin's header still holds the word it
// was read under, and otherwise dropped and retried. A bin in transfer is
// waited out. A migrated bin is read in the successor index: with
// hash-mod addressing and multiplicative growth, old bin b's keys land
// exactly in new bins {b + j·oldBins}, so the walk stays duplicate free.
// depth bounds pathological recursion through nested resizes.
func (t *Table) walkBin(ix *index, b uint64, sc *binScan, depth int) {
	hdrAddr := ix.headerAddr(b)
	for attempt := 0; ; attempt++ {
		hdr := atomic.LoadUint64(hdrAddr)
		switch binState(hdr) {
		case binInTransfer:
			ix.waitBinTransferred(b)
			continue
		case binDoneTransfer:
			if depth > 8 {
				return // give up on a resize storm; weak snapshot
			}
			nx := ix.nextIndex()
			for j := range max(nx.numBins/ix.numBins, 1) {
				t.walkBin(nx, b+j*ix.numBins, sc, depth+1)
			}
			return
		}
		ents, kvs, buf := len(sc.ents), len(sc.kvs), len(sc.buf)
		sane := true
		if sc.kv {
			sane = t.readBinKV(ix, b, hdr, sc)
		} else {
			readBin(ix, b, hdr, sc)
		}
		if sane && atomic.LoadUint64(hdrAddr) == hdr {
			return
		}
		sc.ents, sc.kvs, sc.buf = sc.ents[:ents], sc.kvs[:kvs], sc.buf[:buf]
		if attempt > 32 {
			runtime.Gosched()
		}
	}
}

// readBin appends the entries of bin b's valid slots, read under header
// word hdr, to sc.ents.
func readBin(ix *index, b, hdr uint64, sc *binScan) {
	meta := atomic.LoadUint64(ix.linkMetaAddr(b))
	for i := range slotLimit(meta) {
		if slotState(hdr, i) == slotValid {
			k, v := ix.loadSlot(b, meta, i)
			sc.ents = append(sc.ents, Entry{k, v})
		}
	}
}

// KVEntry is one pair produced by RangeKV: namespace, key, value and the
// pair's metadata word. The byte slices are copies in a buffer the
// traversal reuses: valid during the callback only.
type KVEntry struct {
	NS    uint16
	Key   []byte
	Value []byte
	Meta  uint64
}

// RangeKV is Range for Allocator-mode tables: one full RangeKVStep pass
// over all live out-of-line pairs, calling fn for each until it returns
// false. Returns ErrWrongMode outside Allocator mode.
func (h *Handle) RangeKV(fn func(e *KVEntry) bool) error {
	if h.t.cfg.Mode != Allocator {
		return ErrWrongMode
	}
	more := true
	var cur Cursor
	for done := false; more && !done; {
		cur, done = h.RangeKVStep(cur, walkStep, true, func(e *KVEntry) {
			more = more && fn(e)
		})
	}
	return nil
}

// RangeKVStep is the resumable traversal under RangeKV, and the expiry
// crawler's unit of work: from cur it visits whole bins, calling fn for
// each live pair, until the bins visited plus the pairs yielded reach
// budget — at least one bin per call, so a pass always ends — and returns
// the cursor to resume from; done reports that the pass is complete, and
// the cursor returned with it starts the next one. vals false leaves
// KVEntry.Value nil and the value bytes unread.
//
// The same weak consistency as Range applies, and each bin's pairs are
// copied inside its seqlock window, so a pair deleted (and its block
// reclaimed) mid-read is discarded and retried rather than observed torn.
// fn runs between bins with the handle inside a table operation: it must
// not call back into the handle. The table must be in Allocator mode.
func (h *Handle) RangeKVStep(cur Cursor, budget int, vals bool, fn func(e *KVEntry)) (next Cursor, done bool) {
	t := h.t
	if t.cfg.Mode != Allocator {
		panic(ErrWrongMode)
	}
	ix := h.enter()
	cur, factor := cur.resolve(ix)
	sc := binScan{kvs: h.kvs, buf: h.kvBuf, kv: true, vals: vals}
	for spent := 0; cur.Next < cur.Bins; {
		sc.kvs, sc.buf = sc.kvs[:0], sc.buf[:0]
		for j := uint64(0); j < factor; j++ {
			t.walkBin(ix, cur.Next+j*cur.Bins, &sc, 0)
		}
		spent += int(factor) + len(sc.kvs)
		for i := range sc.kvs {
			fn(&sc.kvs[i])
		}
		if cur.Next++; spent >= budget {
			break
		}
	}
	h.kvs, h.kvBuf = sc.kvs, sc.buf
	if cur.Next >= cur.Bins {
		return Cursor{}, true
	}
	return cur, false
}

// readBinKV appends the pairs of bin b's valid slots, read under header
// word hdr, to sc.kvs, copying key and value bytes into sc.buf before
// walkBin's header check, so a concurrent delete-and-reuse of a block
// forces a retry instead of a torn copy. It reports false on a read that
// cannot be a pair — a torn slot, or block lengths pairBlock rejects — and
// walkBin retries.
func (t *Table) readBinKV(ix *index, b, hdr uint64, sc *binScan) bool {
	meta := atomic.LoadUint64(ix.linkMetaAddr(b))
	for i := range slotLimit(meta) {
		if slotState(hdr, i) != slotValid {
			continue
		}
		kw, vw := ix.loadSlot(b, meta, i)
		if vw == 0 {
			continue // claimed by a delete
		}
		code := keyCodeOf(vw)
		if code == 0 {
			return false // torn slot pair
		}
		key, val, m, ok := t.pairBlock(vw)
		if !ok {
			return false
		}
		keyOff := len(sc.buf)
		if code == bigKeyCode {
			sc.buf = append(sc.buf, key...)
		} else {
			// The slot's key word holds the key's bytes little-endian.
			sc.buf = binary.LittleEndian.AppendUint64(sc.buf, kw)[:keyOff+code]
		}
		// Slice after the appends: they may have moved the buffer. An
		// entry sliced before a later growth keeps the old array, whose
		// bytes were already final.
		e := KVEntry{NS: nsOf(vw), Key: sc.buf[keyOff:len(sc.buf):len(sc.buf)], Meta: m}
		if sc.vals {
			sc.buf = append(sc.buf, val...)
			e.Value = sc.buf[keyOff+len(e.Key) : len(sc.buf) : len(sc.buf)]
		}
		sc.kvs = append(sc.kvs, e)
	}
	return true
}

// ScanStep is the resumable walk of fixed (Inlined/HashSet) tables, and
// the cursor under the cluster migration stream and scrubber: from cur it
// appends the live entries of whole cursor bins to ents until at least
// maxEnts were appended — at least one bin per call, so a pass always ends
// — and returns them with the cursor to resume from; done reports that the
// pass is complete, and the cursor returned with it starts the next one.
// walkBin's recursion covers resizes that land mid-step. Weakly
// consistent like Range — concurrent mutations may or may not be observed —
// which is exactly what the migration pipeline wants (racing foreground
// writes are journaled and re-copied by the coordinator). Allocator-mode
// tables are not scannable this way (their value words are block refs); use
// RangeKVStep.
func (h *Handle) ScanStep(cur Cursor, maxEnts int, ents []Entry) ([]Entry, Cursor, bool) {
	ix := h.enter()
	cur, factor := cur.resolve(ix)
	sc := binScan{ents: ents}
	for start := len(ents); cur.Next < cur.Bins; {
		for j := uint64(0); j < factor; j++ {
			h.t.walkBin(ix, cur.Next+j*cur.Bins, &sc, 0)
		}
		if cur.Next++; len(sc.ents)-start >= maxEnts {
			break
		}
	}
	if cur.Next >= cur.Bins {
		return sc.ents, Cursor{}, true
	}
	return sc.ents, cur, false
}

// Snapshot returns a strongly consistent copy of all entries. It requires
// Config.StrongSnapshots and blocks all mutating operations (but not Gets)
// while it runs, matching the paper's "temporarily stalls updates"
// semantics. The handle's goroutine must not hold other table state.
func (h *Handle) Snapshot() ([]Entry, error) {
	t := h.t
	if !t.cfg.StrongSnapshots {
		return nil, ErrWrongMode
	}
	// Close the gate, then wait for in-flight updates to drain.
	for !t.snapshotGate.CompareAndSwap(0, 1) {
		runtime.Gosched() // another snapshot in progress
	}
	for t.updaters.Load() != 0 {
		runtime.Gosched()
	}
	var out []Entry
	h.Range(func(k, v uint64) bool {
		out = append(out, Entry{k, v})
		return true
	})
	t.snapshotGate.Store(0)
	return out, nil
}

// Len counts live entries with a weak traversal. O(bins); intended for
// tests and tooling, not hot paths.
func (h *Handle) Len() int {
	n := 0
	h.Range(func(uint64, uint64) bool { n++; return true })
	return n
}

package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
	"unsafe"

	"repro/internal/alloc"
)

// Allocator mode (§3.1 mode 2, §3.4.1, §3.4.2): values — and keys larger
// than 8 bytes — live out of line in blocks obtained from the configured
// allocator. The slot's key word holds the inlined key (≤8 B) or the key's
// first 8 bytes as a filter; the slot's value word packs a 48-bit block
// reference with a 4-bit key-size code and a 12-bit namespace in the 16
// most significant bits, exactly the paper's pointer-overloading layout.

// Value-word encoding.
const (
	nsShift      = alloc.RefBits // bits 48..59
	keyCodeShift = 60            // bits 60..63
	nsMask       = 0xfff
	// bigKeyCode marks keys longer than 8 bytes; their length lives in the
	// block header ("four bits suffice, as keys larger than 8 bytes anyway
	// need to dereference the pointer").
	bigKeyCode = 0xf
)

// MaxNamespace is the largest namespace id (12 bits, §3.4.2).
const MaxNamespace = nsMask

// kvBlockHeader is the [klen u32][vlen u32][meta u64] prefix stored when
// either VariableKV is enabled or the key does not fit the slot; a big key
// follows it, then the value. meta is one aligned word the caller owns:
// the table writes it with the block, hands it back beside the value
// (KVGet.Meta, GetKVMeta, RangeKV), and never interprets or changes it — a
// new word comes with a new block (ReplaceKVIf). It shares the block's
// first cache line with the lengths and the head of a big key, so whatever
// a reader keeps there — the RESP layer keeps the pair's expiry deadline —
// costs no memory access beyond the one that fetches the value. Three
// functions know this layout: blockGeometry sizes a block, writeBlock fills
// it, and pairBlock reads it back.
const (
	kvBlockHeader = 16
	kvMetaOff     = 8
)

// Errors specific to Allocator mode.
var (
	// ErrValueSize flags a value whose size differs from Config.ValueSize
	// on a table without VariableKV, or a key+value pair too large for
	// one block of the configured allocator (the slab Arena serves at
	// most alloc.MaxBlock bytes).
	ErrValueSize = errors.New("dlht: value size differs from Config.ValueSize (enable VariableKV)")
	// ErrNamespace flags a namespace id out of range or used on a table
	// without Namespaces enabled.
	ErrNamespace = errors.New("dlht: namespace out of range or not enabled")
	// ErrEmptyKey flags zero-length keys.
	ErrEmptyKey = errors.New("dlht: empty key")
	// ErrNoMeta flags a non-zero metadata word for a pair whose block has
	// no header to hold it: a key of at most 8 bytes on a table without
	// VariableKV.
	ErrNoMeta = errors.New("dlht: pair has no metadata word (enable VariableKV)")
)

func encodeSlotVal(ref alloc.Ref, keyCode int, ns uint16) uint64 {
	return uint64(ref) | uint64(ns&nsMask)<<nsShift | uint64(keyCode)<<keyCodeShift
}

func refOf(v uint64) alloc.Ref { return alloc.Ref(v & alloc.RefMask) }
func keyCodeOf(v uint64) int   { return int(v >> keyCodeShift) }
func nsOf(v uint64) uint16     { return uint16(v>>nsShift) & nsMask }

// inlineKeyWord packs up to the first 8 key bytes little-endian.
func inlineKeyWord(key []byte) uint64 {
	var w uint64
	n := len(key)
	if n > 8 {
		n = 8
	}
	for i := 0; i < n; i++ {
		w |= uint64(key[i]) << (8 * uint(i))
	}
	return w
}

// keyCodeFor returns the 4-bit key-size code for a key.
func keyCodeFor(key []byte) int {
	if len(key) > 8 {
		return bigKeyCode
	}
	return len(key)
}

// binForKV maps a byte key (plus namespace salt) to a bin.
func (t *Table) binForKV(ix *index, key []byte, ns uint16) uint64 {
	return ix.binOf(t.HashOfKV(ns, key))
}

// checkKV validates mode, namespace and value size for the KV API.
func (t *Table) checkKV(ns uint16, key []byte, val []byte, isInsert bool) error {
	if t.cfg.Mode != Allocator {
		return ErrWrongMode
	}
	if len(key) == 0 {
		return ErrEmptyKey
	}
	if ns != 0 && (!t.cfg.Namespaces || ns > MaxNamespace) {
		return ErrNamespace
	}
	if isInsert {
		if !t.cfg.VariableKV && len(val) != t.cfg.ValueSize {
			return ErrValueSize
		}
		// The pair must fit one allocator block; without this gate an
		// oversized wire insert would surface as an allocator panic
		// instead of a status.
		if size, _ := t.blockGeometry(len(key), len(val)); size > t.maxBlock {
			return fmt.Errorf("%w: key+value block of %d bytes exceeds the allocator's %d-byte max", ErrValueSize, size, t.maxBlock)
		}
	}
	return nil
}

// metaWord returns the address of the metadata word in a header-carrying
// block, given (at least) its header bytes. Blocks are 8-byte aligned (the
// Arena's are 16), and so is the word.
func metaWord(blk []byte) *uint64 {
	return (*uint64)(unsafe.Pointer(&blk[kvMetaOff]))
}

// blockGeometry computes the block size and the value offset for a pair.
func (t *Table) blockGeometry(klen, vlen int) (size, valOff int) {
	if t.cfg.VariableKV || klen > 8 {
		valOff = kvBlockHeader
		if klen > 8 {
			valOff += klen
		}
	}
	return valOff + vlen, valOff
}

// writeBlock fills a freshly allocated block as blockGeometry lays it out.
func (t *Table) writeBlock(b []byte, key, val []byte, meta uint64) {
	_, valOff := t.blockGeometry(len(key), len(val))
	if valOff > 0 {
		binary.LittleEndian.PutUint32(b, uint32(len(key)))
		binary.LittleEndian.PutUint32(b[4:], uint32(len(val)))
		atomic.StoreUint64(metaWord(b), meta)
		copy(b[kvBlockHeader:valOff], key) // nothing when the slot holds the key
	}
	copy(b[valOff:], val)
}

// pairBlock reads the block behind a slot's value word vw: the stored big
// key (empty when the slot holds the key), the value and the metadata word
// (0 when the block has no header). It is the one place a block is read.
// A block read before its bin header validates may have been freed and
// reused since — the arena keeps the memory mapped, so the read is safe,
// but its lengths are untrusted: ok is false, and the views nil, when they
// do not fit one allocator block (Table.maxBlock).
func (t *Table) pairBlock(vw uint64) (key, val []byte, meta uint64, ok bool) {
	ref, code := refOf(vw), keyCodeOf(vw)
	if !t.cfg.VariableKV && code != bigKeyCode {
		return nil, t.cfg.Alloc.Bytes(ref, t.cfg.ValueSize), 0, true
	}
	hdr := t.cfg.Alloc.Bytes(ref, kvBlockHeader)
	klen := int(binary.LittleEndian.Uint32(hdr))
	vlen := int(binary.LittleEndian.Uint32(hdr[4:]))
	if klen == 0 || kvBlockHeader+klen+vlen > t.maxBlock {
		return nil, nil, 0, false
	}
	meta = atomic.LoadUint64(metaWord(hdr))
	valOff := kvBlockHeader
	if code == bigKeyCode {
		valOff += klen
	}
	blk := t.cfg.Alloc.Bytes(ref, valOff+vlen)
	return blk[kvBlockHeader:valOff:valOff], blk[valOff:], meta, true
}

// matchKV reports whether a slot's (keyWord, valWord) matches the lookup
// key: the slot-word filters (key word, size code, namespace) and, for a
// big key, the out-of-line comparison. A slot a delete has claimed holds
// value word 0, whose size code matches no key: it reads as absent, and
// its (nil) block is never read. A nil key stops at the filters —
// the pipelined lookup's candidate pick, which leaves the block untouched
// until its prefetch has landed. The big-key answer stands only if the
// bin header the slot was read under validates afterwards: inside
// scanBinKV's window here, one window later (kvStep) for a pipelined
// lookup.
func (t *Table) matchKV(kw, vw uint64, wantKW uint64, wantCode int, ns uint16, key []byte) bool {
	if kw != wantKW || keyCodeOf(vw) != wantCode || nsOf(vw) != ns {
		return false
	}
	if wantCode != bigKeyCode || key == nil {
		return true
	}
	stored, _, _, _ := t.pairBlock(vw)
	return bytes.Equal(stored, key)
}

// scanBinKV is scanBin with the Allocator-mode match predicate. Big-key
// block reads race with frees only when the slot was concurrently deleted,
// in which case the final header validation forces a retry; the arena keeps
// the memory mapped, so the stale read is safe.
func (t *Table) scanBinKV(ix *index, b uint64, hdr uint64, wantKW uint64, wantCode int, ns uint16, key []byte) (slot int, val uint64) {
	meta := atomic.LoadUint64(ix.linkMetaAddr(b))
	limit := slotLimit(meta)
	hdrAddr := ix.headerAddr(b)
	for i := 0; i < limit; i++ {
		if slotState(hdr, i) != slotValid {
			continue
		}
		kw, vw := ix.loadSlot(b, meta, i)
		if !t.matchKV(kw, vw, wantKW, wantCode, ns, key) {
			continue
		}
		if atomic.LoadUint64(hdrAddr) != hdr {
			return scanRetry, 0
		}
		return i, vw
	}
	if atomic.LoadUint64(hdrAddr) != hdr {
		return scanRetry, 0
	}
	return scanMiss, 0
}

// ---------------------------------------------------------------------------
// Public KV API
// ---------------------------------------------------------------------------

// GetKV looks up key under namespace ns and returns a view of its value —
// the paper's pointer API (§3.2.1): no copy is made, and the caller may
// mutate the view in place to update the value. The view is of this pair:
// once a replace or a delete swaps the pair out of its slot, writes to it
// reach no reader. With EpochGC enabled the view stays valid until this
// handle's next AdvanceEpoch call; without it, until the pair is swapped
// out.
func (h *Handle) GetKV(ns uint16, key []byte) ([]byte, bool) {
	v, _, ref := h.GetKVMeta(ns, key, h.t.HashOfKV(ns, key))
	return v, !ref.IsNil()
}

// GetKVMeta is GetKV with the key's hash — Table.HashOfKV — precomputed,
// returning beside the value view the pair's metadata word and its
// block's ref, which names this pair (nil: the key is absent). DeleteKVIf
// and ReplaceKVIf take the ref back and act only while the pair is still
// the one read; with EpochGC the ref cannot name another pair before this
// handle's next AdvanceEpoch.
func (h *Handle) GetKVMeta(ns uint16, key []byte, hash uint64) (val []byte, meta uint64, ref alloc.Ref) {
	vw, ok := h.findKV(ns, key, hash)
	if !ok {
		return nil, 0, 0
	}
	if debugAsserts {
		h.assertViewPinned()
	}
	_, val, meta, _ = h.t.pairBlock(vw)
	return val, meta, refOf(vw)
}

// findKV is the synchronous lookup: the value word of key's slot. The block
// behind it outlives the lookup (an epoch, or the no-reclaim contract, pins
// it), so callers resolve it after return.
func (h *Handle) findKV(ns uint16, key []byte, hash uint64) (uint64, bool) {
	t := h.t
	if err := t.checkKV(ns, key, nil, false); err != nil {
		panic(err)
	}
	ix := h.enter()
	vw, _, _, ok := t.lookupKVSlotAt(ix, ns, key, inlineKeyWord(key), keyCodeFor(key), ix.binOf(hash), true)
	return vw, ok
}

// CheckKV validates a KV request against the table's mode and
// configuration without executing it: ErrWrongMode outside Allocator mode,
// ErrNamespace for an out-of-range or disabled namespace, ErrEmptyKey, and
// (for inserts) ErrValueSize on fixed-size tables. GetKV/DeleteKV panic on
// these conditions — they are local API misuse — so callers relaying
// untrusted requests (the network server) gate on CheckKV first and turn
// failures into wire statuses.
func (t *Table) CheckKV(ns uint16, key, val []byte, isInsert bool) error {
	return t.checkKV(ns, key, val, isInsert)
}

// UpdateKV applies fn to the live value of key in place — the pointer-API
// update pattern motivated in §3.2.1 (read-modify-write, partial updates,
// custom concurrency). fn must synchronize with other writers of the same
// key at the application level. Returns false when the key is absent.
func (h *Handle) UpdateKV(ns uint16, key []byte, fn func(val []byte)) bool {
	v, ok := h.GetKV(ns, key)
	if !ok {
		return false
	}
	fn(v)
	return true
}

// InsertKV adds key→val under namespace ns. Returns ErrExists if the key is
// present, ErrFull when out of room on a non-resizable table, ErrValueSize
// on fixed-size tables with a mismatched value.
func (h *Handle) InsertKV(ns uint16, key, val []byte) error {
	return h.InsertKVHashed(ns, key, val, h.t.HashOfKV(ns, key))
}

// InsertKVHashed is InsertKV with the key's hash — as returned by
// Table.HashOfKV — precomputed by the caller. Routing layers that already
// hashed the key to pick a shard pass the hash down instead of paying it
// again; the hash stays valid across resizes (only the modulus changes).
func (h *Handle) InsertKVHashed(ns uint16, key, val []byte, hash uint64) error {
	return h.writeKV(ns, key, val, hash, 0, 0, false)
}

// kvOp is an Allocator-mode op as the shared §3.2 bodies take it beside
// the key word: the byte key and its hash for the slot match and the bin
// mapping, and for an Insert or Put the pair the new block holds. ref is
// that block: nil until a body allocates it, then reused by every retry
// and by both steps of an upsert. old, when set, is the block of the one
// pair a Put or Delete may swap out (scanAt).
type kvOp struct {
	key  []byte
	val  []byte
	hash uint64
	meta uint64
	ref  alloc.Ref
	old  alloc.Ref
	code int
	ns   uint16
}

// kvSlotVal returns the value word publishing kv's pair, allocating and
// filling its block on first use.
func (t *Table) kvSlotVal(kv *kvOp) uint64 {
	if kv.ref.IsNil() {
		size, _ := t.blockGeometry(len(kv.key), len(kv.val))
		var blk []byte
		kv.ref, blk = t.cfg.Alloc.Alloc(size)
		t.writeBlock(blk, kv.key, kv.val, kv.meta)
	}
	return encodeSlotVal(kv.ref, kv.code, kv.ns)
}

// writeKV stores key→val with meta as the pair's metadata word: with old
// set the Put body over that pair only (ErrExists when the key no longer
// holds it), with upsert the Put body then the Insert body on a miss, and
// otherwise the Insert body. A non-zero meta needs a block header
// (ErrNoMeta). The pair's block is freed if no body published it.
func (h *Handle) writeKV(ns uint16, key, val []byte, hash, meta uint64, old alloc.Ref, upsert bool) (err error) {
	t := h.t
	if err = t.checkKV(ns, key, val, true); err != nil {
		return err
	}
	if _, valOff := t.blockGeometry(len(key), len(val)); meta != 0 && valOff == 0 {
		return ErrNoMeta
	}
	kv := kvOp{key: key, val: val, hash: hash, meta: meta, old: old, code: keyCodeFor(key), ns: ns}
	kw := inlineKeyWord(key)
	t.beginUpdate()
	ix := h.enter()
	for {
		if upsert || !old.IsNil() {
			if _, ok := t.putInAt(h, ix, kw, 0, ix.binOf(hash), &kv); ok {
				err = nil
				break
			}
			if !old.IsNil() {
				err = ErrExists
				break
			}
		}
		// An upsert whose insert lost to a concurrent inserter replaces
		// the winner's pair.
		if _, err = t.insertInAt(h, ix, kw, 0, slotValid, ix.binOf(hash), &kv); !upsert || !errors.Is(err, ErrExists) {
			break
		}
	}
	t.endUpdate()
	if err != nil && !kv.ref.IsNil() {
		t.cfg.Alloc.Free(kv.ref)
	}
	return err
}

// DeleteKV removes key under namespace ns, reclaiming the slot instantly
// and the out-of-line block immediately or via the epoch GC.
func (h *Handle) DeleteKV(ns uint16, key []byte) bool {
	return h.DeleteKVHashed(ns, key, h.t.HashOfKV(ns, key))
}

// DeleteKVHashed is DeleteKV with the key's hash — as returned by
// Table.HashOfKV — precomputed by the caller; see InsertKVHashed.
func (h *Handle) DeleteKVHashed(ns uint16, key []byte, hash uint64) bool {
	return h.DeleteKVIf(ns, key, hash, 0)
}

// DeleteKVIf is DeleteKVHashed conditioned on the pair: with old — a ref
// GetKVMeta returned — it deletes only the pair whose block that is, and
// reports false once a replace or a delete has swapped it out; a nil old
// deletes any pair of the key. The block is retired by the one op that
// swaps it out of its slot.
func (h *Handle) DeleteKVIf(ns uint16, key []byte, hash uint64, old alloc.Ref) bool {
	t := h.t
	if err := t.checkKV(ns, key, nil, false); err != nil {
		panic(err)
	}
	kv := kvOp{key: key, hash: hash, old: old, code: keyCodeFor(key), ns: ns}
	t.beginUpdate()
	ix := h.enter()
	_, ok := t.deleteInAt(h, ix, inlineKeyWord(key), ix.binOf(hash), &kv)
	t.endUpdate()
	return ok
}

// UpsertKVHashed sets key→val, with meta as the pair's metadata word,
// whether or not key is present; hash is the key's Table.HashOfKV. A
// non-zero meta needs a block header (ErrNoMeta without one). A present
// pair is replaced by the Put body — one double-word CAS swaps the slot's
// block reference — so a concurrent reader sees the old pair or the new
// one, never the key absent; an absent key is inserted, and an insert that
// loses the race to a concurrent inserter replaces that pair instead.
// Without EpochGC a swapped-out block is freed at once, and the caller
// serializes deletes of key against its replacers, as it must for GetKV's
// views. Every unconditional replace in the tree — the pipeline's Put, a
// plain SET, WAL replay — is this function.
func (h *Handle) UpsertKVHashed(ns uint16, key, val []byte, hash, meta uint64) error {
	return h.writeKV(ns, key, val, hash, meta, 0, true)
}

// ReplaceKVIf is the check-and-act write: it publishes key→val, with meta
// as the pair's metadata word, only while key's pair is the one whose
// block is old — a ref GetKVMeta returned — or, with old nil, only while
// key is absent. One double-word CAS on the slot (one header CAS for an
// absent key) decides; false means another writer changed the pair
// first, and the caller reads it again. Errors are UpsertKVHashed's.
func (h *Handle) ReplaceKVIf(ns uint16, key, val []byte, hash, meta uint64, old alloc.Ref) (bool, error) {
	err := h.writeKV(ns, key, val, hash, meta, old, false)
	if errors.Is(err, ErrExists) {
		return false, nil
	}
	return err == nil, err
}

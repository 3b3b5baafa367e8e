// Package wal implements the durable Store backend: an append-only
// segmented redo log whose fsync cost is amortized exactly the way the
// table amortizes DRAM latency — over a window of in-flight requests.
//
// A mutation executes in memory first, then appends one CRC-framed record
// to the log; its completion is withheld until a group commit (one fsync
// issued by a dedicated sync goroutine) covers the record. Every op
// enqueued while the previous fsync was in flight rides the next one, so
// a deep Store.Pipe window pays ~one fsync per window rather than one per
// op (see the bitdb numbers in SNIPPETS.md: ~10 ms per-op fsync vs ~µs
// appends — the gap group commit closes).
//
// On disk a log directory holds numbered segments (wal-%016x.seg) and
// snapshots (snap-%016x.snap). A snapshot's number is the first segment it
// does NOT cover: recovery loads the newest snapshot, replays every
// segment at or after its number in order, tolerates a torn tail only in
// the last segment (truncating to the last complete record), and opens a
// fresh segment. Compaction — deleting covered segments after a snapshot —
// runs in a background goroutine and never stalls the foreground pipeline.
//
// Durability contract: when a completion fires (or a synchronous mutation
// returns), its record is fsynced. Recovery restores every acknowledged
// effective mutation; unacknowledged tail writes may or may not survive,
// and are never double-applied (replay is convergent: the final state of a
// key is the last logged state). Any number of handles may write one key:
// an op's record is the state its key holds when the record is appended,
// read after the op applied (Log.LogFixed, Log.LogKV), so a key's last
// record always reflects its last logged apply. Uncommitted shadow entries do not
// survive snapshot compaction (iterators hide them); they are a transient
// two-phase primitive, not durable state.
package wal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
)

// Record kinds: the redo vocabulary, shared by segments and snapshots.
const (
	recPut          = 1 // key, val
	recInsert       = 2 // key, val
	recDelete       = 3 // key
	recInsertShadow = 4 // key, val
	recCommitShadow = 5 // key, commit flag
	recInsertKV     = 6 // ns, klen, key bytes, value bytes
	recDeleteKV     = 7 // ns, key bytes
	recExpireKV     = 8 // ns, deadline (unix ms; <=0 clears), key bytes
	recKindEnd      = 9
)

// Frame layout: crc32(4, IEEE over the payload) | len(4) | payload.
const (
	frameHdrSize = 8
	// maxRecordLen bounds a frame's payload so the decoder rejects
	// garbage lengths instead of allocating or scanning gigabytes. The
	// largest legitimate record is an insertKV: 1+2+4 bytes of header
	// plus a key+value pair bounded by the allocator's block size
	// (16 MiB slabs); 32 MiB leaves headroom without trusting the input.
	maxRecordLen = 32 << 20
)

// Decode errors. ErrShortRecord means the buffer ends mid-frame — at the
// tail of the last segment that is a torn write, anywhere else it is
// corruption. ErrCorrupt means the frame can never parse (bad CRC, bad
// length, bad kind, payload/kind size mismatch).
var (
	ErrShortRecord = errors.New("wal: incomplete record frame")
	ErrCorrupt     = errors.New("wal: corrupt record frame")
)

// Record is one decoded redo record. K and V alias the decode buffer.
type Record struct {
	Kind   byte
	Key    uint64
	Val    uint64
	Commit bool
	NS     uint16
	K, V   []byte
	// At is an expireKV record's absolute deadline in Unix milliseconds;
	// zero or negative means the record clears the key's TTL (PERSIST).
	At int64
}

// openFrame reserves a frame header at the end of dst and returns where
// the frame starts. Each encoder then appends its payload to dst and
// sealFrame patches the header over it: nothing is staged outside dst, so
// encoding allocates nothing once the log buffer has grown.
func openFrame(dst []byte) ([]byte, int) {
	return append(dst, 0, 0, 0, 0, 0, 0, 0, 0), len(dst)
}

// sealFrame writes the CRC and length of the frame that starts at start
// and runs to the end of dst.
func sealFrame(dst []byte, start int) []byte {
	payload := dst[start+frameHdrSize:]
	binary.LittleEndian.PutUint32(dst[start:], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint32(dst[start+4:], uint32(len(payload)))
	return dst
}

// appendFixed encodes a fixed-op payload (put/insert/insertShadow).
func appendFixed(dst []byte, kind byte, key, val uint64) []byte {
	dst, start := openFrame(dst)
	dst = binary.LittleEndian.AppendUint64(append(dst, kind), key)
	return sealFrame(binary.LittleEndian.AppendUint64(dst, val), start)
}

// appendDelete encodes a delete payload.
func appendDelete(dst []byte, key uint64) []byte {
	dst, start := openFrame(dst)
	return sealFrame(binary.LittleEndian.AppendUint64(append(dst, recDelete), key), start)
}

// appendCommitShadow encodes a commit/abort payload.
func appendCommitShadow(dst []byte, key uint64, commit bool) []byte {
	dst, start := openFrame(dst)
	dst = binary.LittleEndian.AppendUint64(append(dst, recCommitShadow), key)
	var c byte
	if commit {
		c = 1
	}
	return sealFrame(append(dst, c), start)
}

// appendInsertKV encodes a KV insert payload: ns, klen, key, value.
func appendInsertKV(dst []byte, ns uint16, key, val []byte) []byte {
	dst, start := openFrame(dst)
	dst = binary.LittleEndian.AppendUint16(append(dst, recInsertKV), ns)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(key)))
	return sealFrame(append(append(dst, key...), val...), start)
}

// appendDeleteKV encodes a KV delete payload: ns, key.
func appendDeleteKV(dst []byte, ns uint16, key []byte) []byte {
	dst, start := openFrame(dst)
	dst = binary.LittleEndian.AppendUint16(append(dst, recDeleteKV), ns)
	return sealFrame(append(dst, key...), start)
}

// appendExpireKV encodes a TTL payload: ns, deadline, key. A deadline at
// or below zero clears the key's TTL on replay.
func appendExpireKV(dst []byte, ns uint16, key []byte, at int64) []byte {
	dst, start := openFrame(dst)
	dst = binary.LittleEndian.AppendUint16(append(dst, recExpireKV), ns)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(at))
	return sealFrame(append(dst, key...), start)
}

// DecodeRecord decodes the first frame of b, returning the record and the
// bytes consumed. It never panics on arbitrary input: a buffer ending
// mid-frame is ErrShortRecord, anything unparseable is ErrCorrupt.
func DecodeRecord(b []byte) (Record, int, error) {
	if len(b) < frameHdrSize {
		return Record{}, 0, ErrShortRecord
	}
	n := int(binary.LittleEndian.Uint32(b[4:]))
	if n == 0 || n > maxRecordLen {
		return Record{}, 0, ErrCorrupt
	}
	if len(b) < frameHdrSize+n {
		return Record{}, 0, ErrShortRecord
	}
	payload := b[frameHdrSize : frameHdrSize+n]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(b[0:]) {
		return Record{}, 0, ErrCorrupt
	}
	r := Record{Kind: payload[0]}
	switch r.Kind {
	case recPut, recInsert, recInsertShadow:
		if n != 17 {
			return Record{}, 0, ErrCorrupt
		}
		r.Key = binary.LittleEndian.Uint64(payload[1:])
		r.Val = binary.LittleEndian.Uint64(payload[9:])
	case recDelete:
		if n != 9 {
			return Record{}, 0, ErrCorrupt
		}
		r.Key = binary.LittleEndian.Uint64(payload[1:])
	case recCommitShadow:
		if n != 10 || payload[9] > 1 {
			return Record{}, 0, ErrCorrupt
		}
		r.Key = binary.LittleEndian.Uint64(payload[1:])
		r.Commit = payload[9] == 1
	case recInsertKV:
		if n < 7 {
			return Record{}, 0, ErrCorrupt
		}
		r.NS = binary.LittleEndian.Uint16(payload[1:])
		klen := int(binary.LittleEndian.Uint32(payload[3:]))
		if klen < 0 || klen > n-7 {
			return Record{}, 0, ErrCorrupt
		}
		r.K = payload[7 : 7+klen]
		r.V = payload[7+klen:]
	case recDeleteKV:
		if n < 3 {
			return Record{}, 0, ErrCorrupt
		}
		r.NS = binary.LittleEndian.Uint16(payload[1:])
		r.K = payload[3:]
	case recExpireKV:
		if n < 12 { // header plus a non-empty key
			return Record{}, 0, ErrCorrupt
		}
		r.NS = binary.LittleEndian.Uint16(payload[1:])
		r.At = int64(binary.LittleEndian.Uint64(payload[3:]))
		r.K = payload[11:]
	default:
		return Record{}, 0, ErrCorrupt
	}
	return r, frameHdrSize + n, nil
}

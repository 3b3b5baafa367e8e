// Package expiry gives the pairs of an Allocator-mode DLHT table a
// time-to-live. A pair's absolute Unix-millisecond deadline lives in the
// metadata word of its out-of-line block (core.KVGet.Meta; 0 means none),
// so a read learns it from the cache line that already holds the value:
// an expired key answers as a miss and is deleted, and a background
// crawler walks the table's bins deleting what no read came back for,
// memcached style. The table itself stays TTL-free — the word is opaque
// to it — and nothing about a deadline lives on the Go heap.
//
// The KV state machine in this package (kv.go) is the one owner of what a
// deadline means — SET, DEL, EXPIRE, PERSIST, lazy expiry, the crawler's
// deletions. It takes no lock: a pair's deadline is written with its
// block and never changed in place, so a compound operation — read the
// pair, decide, delete or replace it — commits with one CAS on the
// pair's slot that fails if any other writer changed the pair since the
// read (core.Handle.DeleteKVIf, ReplaceKVIf), and then reads again.
package expiry

import "time"

// NowMs is the production clock: Unix milliseconds.
func NowMs() int64 { return time.Now().UnixMilli() }

// Dead reports whether a pair whose metadata word is meta has expired at
// now: the read path's cheap pre-check, made on the completion a lookup
// already produced, against a clock the caller samples once per burst. A
// dead pair answers as a miss; deleting it is KV.Expired's job.
func Dead(meta uint64, now int64) bool { return meta != 0 && int64(meta) <= now }

// Clock is a reader's once-per-burst sample of an Index's clock: Now reads
// the clock on the burst's first use and repeats that reading until Reset,
// which the reader calls when the burst is over — its connection is about
// to block, its ring batch is done. A clock read costs about as much as a
// lookup; a burst of a hundred GETs pays for one. One goroutine's.
type Clock struct {
	ix    *Index
	now   int64
	fresh bool
}

// Clock returns a burst clock over ix.
func (ix *Index) Clock() Clock { return Clock{ix: ix} }

// Now returns the burst's sample, taking it if this is the first use.
func (c *Clock) Now() int64 {
	if !c.fresh {
		c.now, c.fresh = c.ix.Now(), true
	}
	return c.now
}

// Reset ends the burst: the next Now reads the clock again.
func (c *Clock) Reset() { c.fresh = false }

// Index is what every KV on one table shares: the clock. All methods are
// safe for concurrent use. The zero Index is not usable — construct with
// New.
type Index struct {
	now func() int64
}

// New creates an Index reading time from now (Unix milliseconds); nil
// selects the real clock. Tests inject a fake clock here to make
// lazy-vs-crawler properties deterministic.
func New(now func() int64) *Index {
	if now == nil {
		now = NowMs
	}
	return &Index{now: now}
}

// Now returns the index's current time in Unix milliseconds.
func (ix *Index) Now() int64 { return ix.now() }

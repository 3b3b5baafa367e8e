package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	core "repro/internal/core"
)

// segName formats a segment file name; snapName a snapshot covering every
// segment numbered below seg.
func segName(seg uint64) string  { return fmt.Sprintf("wal-%016x.seg", seg) }
func snapName(seg uint64) string { return fmt.Sprintf("snap-%016x.snap", seg) }

// Log is the append side of the WAL: a current segment file behind a
// buffered writer, a monotone record sequence, and a sync goroutine that
// group-commits. Append never fsyncs (except segment rotation); instead
// every append kicks the syncer, which flushes the buffer and issues one
// fsync covering everything appended since the last one — while it runs,
// further appends pile up and ride the next fsync. SyncWait(seq) blocks
// until seq is covered.
//
// Append and the Log* helpers are safe for concurrent use from any number
// of pipes and connections; the sequence numbers they return are totally
// ordered across the process.
type Log struct {
	dir      string
	segLimit int64

	mu       sync.Mutex
	dirtyC   sync.Cond // syncer waits for unsynced appends
	syncedC  sync.Cond // SyncWait waiters
	f        *os.File
	buf      []byte // encode scratch + write buffer, flushed by the syncer
	seg      uint64 // current segment number
	segBytes int64
	seq      uint64 // last assigned record sequence
	synced   uint64 // highest sequence covered by fsync
	appended int64  // total bytes appended since open (snapshot trigger)
	err      error  // sticky; poisons every subsequent append and wait
	closed   bool

	done chan struct{} // syncer exit
}

// defaultSegmentBytes is the segment rotation threshold when
// Options.SegmentBytes is zero.
const defaultSegmentBytes = 64 << 20

// openLog creates a Log writing to a fresh segment numbered seg.
func openLog(dir string, seg uint64, segLimit int64) (*Log, error) {
	if segLimit <= 0 {
		segLimit = defaultSegmentBytes
	}
	l := &Log{dir: dir, segLimit: segLimit, seg: seg, done: make(chan struct{})}
	l.dirtyC.L = &l.mu
	l.syncedC.L = &l.mu
	f, err := os.OpenFile(filepath.Join(dir, segName(seg)), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	l.f = f
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	go l.syncLoop()
	return l, nil
}

// syncDir fsyncs a directory so created/renamed/removed entries are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// append frames payload (already encoded by an encode closure) and
// assigns it the next sequence number. The frame goes into the in-memory
// buffer; the syncer flushes and fsyncs it. Rotation happens inline when
// the segment limit is crossed, fsyncing the outgoing segment so a
// segment file on disk is always fully synced once it is not current.
func (l *Log) append(enc func(dst []byte) []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return 0, l.err
	}
	if l.closed {
		return 0, ErrClosed
	}
	before := len(l.buf)
	l.buf = enc(l.buf)
	n := int64(len(l.buf) - before)
	l.seq++
	l.segBytes += n
	l.appended += n
	if l.segBytes >= l.segLimit {
		if err := l.rotateLocked(); err != nil {
			l.fail(err)
			return 0, err
		}
	}
	l.dirtyC.Signal()
	return l.seq, nil
}

// rotateLocked flushes and fsyncs the current segment, then opens the
// next one. Records buffered at rotation are covered by the rotation
// fsync itself; l.synced still advances only via the syncer, which next
// syncs the new (empty-so-far) segment — correct, merely conservative.
func (l *Log) rotateLocked() error {
	if err := l.flushLocked(); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	l.seg++
	l.segBytes = 0
	f, err := os.OpenFile(filepath.Join(l.dir, segName(l.seg)), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	l.f = f
	return syncDir(l.dir)
}

// flushLocked writes the buffered frames to the current segment file.
func (l *Log) flushLocked() error {
	if len(l.buf) == 0 {
		return nil
	}
	if _, err := l.f.Write(l.buf); err != nil {
		return err
	}
	l.buf = l.buf[:0]
	return nil
}

// fail records the sticky error and wakes everyone.
func (l *Log) fail(err error) {
	if l.err == nil {
		l.err = err
	}
	l.dirtyC.Signal()
	l.syncedC.Broadcast()
}

// syncLoop is the group-commit goroutine: wait for unsynced appends,
// flush the buffer, fsync outside the lock, advance the synced watermark
// to everything the flush captured, and wake the waiters. Appends landing
// during the fsync accumulate and are covered by the next iteration — the
// natural group-commit window.
func (l *Log) syncLoop() {
	defer close(l.done)
	l.mu.Lock()
	for {
		for l.seq == l.synced && !l.closed && l.err == nil {
			l.dirtyC.Wait()
		}
		if l.err != nil || (l.closed && l.seq == l.synced) {
			l.mu.Unlock()
			return
		}
		target := l.seq
		seg := l.seg
		if err := l.flushLocked(); err != nil {
			l.fail(err)
			l.mu.Unlock()
			return
		}
		f := l.f
		l.mu.Unlock()
		err := f.Sync()
		l.mu.Lock()
		if err != nil && seg == l.seg && l.err == nil {
			// A rotation between unlock and Sync closed f; its records
			// were covered by the rotation fsync, so only a same-segment
			// failure poisons the log.
			l.fail(err)
			l.mu.Unlock()
			return
		}
		if l.synced < target {
			l.synced = target
		}
		l.syncedC.Broadcast()
	}
}

// ErrClosed is reported for appends and waits on a closed Log.
var ErrClosed = fmt.Errorf("wal: log closed")

// Synced returns the highest record sequence covered by an fsync.
func (l *Log) Synced() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.synced
}

// Err returns the log's sticky error, if any.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Appended returns the total bytes appended since the log was opened.
func (l *Log) Appended() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appended
}

// SyncWait blocks until record sequence seq is covered by an fsync. seq 0
// (no record) returns immediately with the sticky error state, so callers
// can pass the max sequence they observed without special-casing "nothing
// to wait for".
func (l *Log) SyncWait(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.synced < seq && l.err == nil && !l.closed {
		l.syncedC.Wait()
	}
	if l.err != nil {
		return l.err
	}
	if l.synced < seq {
		return ErrClosed
	}
	return nil
}

// Rotate forces a segment rotation and returns the new segment's number:
// every record appended so far lives in segments below it and is fsynced.
// The snapshotter calls this to establish a snapshot boundary.
func (l *Log) Rotate() (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return 0, l.err
	}
	if l.closed {
		return 0, ErrClosed
	}
	if err := l.rotateLocked(); err != nil {
		l.fail(err)
		return 0, err
	}
	// Everything appended before the rotation is now fsynced.
	if l.synced < l.seq {
		l.synced = l.seq
		l.syncedC.Broadcast()
	}
	return l.seg, nil
}

// Close flushes and fsyncs everything appended, stops the sync goroutine
// and closes the segment. Further appends fail with ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		<-l.done
		return l.err
	}
	l.closed = true
	var err error
	if l.err == nil {
		if err = l.flushLocked(); err == nil {
			err = l.f.Sync()
		}
		if err != nil {
			l.fail(err)
		} else {
			l.synced = l.seq
		}
	}
	l.dirtyC.Signal()
	l.syncedC.Broadcast()
	f := l.f
	l.mu.Unlock()
	<-l.done
	if cerr := f.Close(); err == nil && cerr != nil {
		err = cerr
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err == nil {
		err = l.err
	}
	return err
}

// crash abandons the log the way kill -9 would: buffered frames are
// dropped unflushed, the segment is closed without fsync, and every
// waiter fails. Test hook for crash-recovery properties.
func (l *Log) crash() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		<-l.done
		return
	}
	l.closed = true
	l.buf = nil
	l.fail(ErrClosed)
	f := l.f
	l.mu.Unlock()
	<-l.done
	f.Close()
}

// ---------------------------------------------------------------------------
// Typed append helpers
// ---------------------------------------------------------------------------

// LogFixed is the one durable step of a fixed mutation: it appends the
// redo record of op, which has completed on h, and returns its sequence,
// or 0 when the op needs none: reads, misses, failed inserts (Op.OK is
// the effective-mutation bit). Store's sync ops and Pipe and every server
// connection log through it.
//
// A Put, Insert or Delete is logged as the state its key holds, read
// through h under the log's lock: a put record (replay upserts) if the
// key is present, a delete record if not. Appends are serialized and each
// read follows its own op's apply, so a key's last record reflects every
// logged apply, however two writers' applies and appends interleave.
// InsertShadow and CommitShadow keep their op records (LogOp), so a
// shadowed key's writers must still append in apply order.
func (l *Log) LogFixed(h *core.Handle, op *core.Op) (uint64, error) {
	if !op.OK || op.Kind == core.OpGet {
		return 0, nil
	}
	if testRecordGap != nil {
		testRecordGap()
	}
	switch op.Kind {
	case core.OpPut, core.OpInsert, core.OpDelete:
		key := op.Key
		return l.append(func(dst []byte) []byte {
			if v, ok := h.Get(key); ok {
				return appendFixed(dst, recPut, key, v)
			}
			return appendDelete(dst, key)
		})
	}
	return l.LogOp(op)
}

// testRecordGap, when non-nil, runs in LogFixed and LogKV between an op's
// apply and its append. Test-only: the two-writer tests yield there.
var testRecordGap func()

// LogOp appends the op's own redo record — the kind and value it was
// issued with — for a completed fixed op and returns its sequence, or 0
// when the op needs no record. The durable mutation path logs through
// LogFixed instead; LogOp's records recover what was served only while
// each key's writers append in apply order.
func (l *Log) LogOp(op *core.Op) (uint64, error) {
	if !op.OK {
		return 0, nil
	}
	switch op.Kind {
	case core.OpPut:
		return l.append(func(dst []byte) []byte { return appendFixed(dst, recPut, op.Key, op.Value) })
	case core.OpInsert:
		return l.append(func(dst []byte) []byte { return appendFixed(dst, recInsert, op.Key, op.Value) })
	case core.OpInsertShadow:
		return l.append(func(dst []byte) []byte { return appendFixed(dst, recInsertShadow, op.Key, op.Value) })
	case core.OpDelete:
		return l.append(func(dst []byte) []byte { return appendDelete(dst, op.Key) })
	case core.OpCommitShadow:
		commit := op.Value != 0
		return l.append(func(dst []byte) []byte { return appendCommitShadow(dst, op.Key, commit) })
	}
	return 0, nil
}

// LogKV is the one durable step of a KV mutation (expiry.RedoLog): it
// appends the state key's pair holds, read through h — the handle the
// mutation applied on — under the log's lock, and returns its sequence.
// A present pair is logged after a value write (deadline false) as its
// insert record, followed by an expire record when the pair has a
// deadline, and after a deadline write as its expire record alone; an
// absent pair as a delete record. As with LogFixed, appends are
// serialized and each read follows its own op's apply, so a key's last
// record reflects every logged apply however two handles' applies and
// appends interleave. The key and value bytes are copied into the log
// buffer before it returns.
func (l *Log) LogKV(h *core.Handle, ns uint16, key []byte, hash uint64, deadline bool) (uint64, error) {
	if testRecordGap != nil {
		testRecordGap()
	}
	return l.append(func(dst []byte) []byte {
		val, meta, ref := h.GetKVMeta(ns, key, hash)
		switch {
		case ref.IsNil():
			return appendDeleteKV(dst, ns, key)
		case deadline:
			return appendExpireKV(dst, ns, key, int64(meta))
		}
		dst = appendInsertKV(dst, ns, key, val)
		if meta != 0 {
			dst = appendExpireKV(dst, ns, key, int64(meta))
		}
		return dst
	})
}

package wal

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"

	core "repro/internal/core"
)

// Snapshot writes a snapshot of the table's current state and compacts
// the log: segments the snapshot covers (and older snapshots) are
// deleted. It runs on the caller's goroutine against the Store's
// dedicated snapshot handle, using the weakly consistent iterators — the
// foreground pipeline is never stalled. Sound because every record reads
// or follows its key's apply, and the scan starts after the rotation: an
// op's record is the state its key holds when the record is appended
// (Log.LogFixed, Log.LogKV). So the scan sees every apply whose record
// precedes the boundary, and a key the scan read before a later apply has
// a record after the boundary that replay ends on. An apply that no
// record reflects yet was not acknowledged.
func (s *Store) Snapshot() error {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	boundary, err := s.log.Rotate()
	if err != nil {
		return err
	}
	tmp := filepath.Join(s.dir, fmt.Sprintf("snap-%016x.tmp", boundary))
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	var frame []byte
	var werr error
	write := func(enc func([]byte) []byte) bool {
		frame = enc(frame[:0])
		if _, werr = bw.Write(frame); werr != nil {
			return false
		}
		return true
	}
	if s.cfg.Mode == core.Allocator {
		// A pair's deadline follows it, mirroring segment order for
		// SET-with-EX: replay applies the insert (no deadline), then
		// re-asserts the deadline.
		err = s.snapH.RangeKV(func(e *core.KVEntry) bool {
			ok := write(func(dst []byte) []byte { return appendInsertKV(dst, e.NS, e.Key, e.Value) })
			if ok && e.Meta != 0 {
				ok = write(func(dst []byte) []byte { return appendExpireKV(dst, e.NS, e.Key, int64(e.Meta)) })
			}
			return ok
		})
		// Let blocks retired to this handle's epoch reclaim between scans.
		s.snapH.AdvanceEpoch()
	} else {
		s.snapH.Range(func(k, v uint64) bool {
			return write(func(dst []byte) []byte { return appendFixed(dst, recInsert, k, v) })
		})
	}
	if err == nil {
		err = werr
	}
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, snapName(boundary))); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := syncDir(s.dir); err != nil {
		return err
	}
	s.compact(boundary)
	return nil
}

// compact removes everything a snapshot at boundary supersedes: segments
// below the boundary and older snapshots. Removal failures are ignored —
// leftovers are re-candidates on the next snapshot and harmless to
// recovery, which starts from the newest snapshot.
func (s *Store) compact(boundary uint64) {
	st, err := scanDir(s.dir)
	if err != nil {
		return
	}
	removed := false
	for _, seg := range st.segs {
		if seg < boundary {
			if os.Remove(filepath.Join(s.dir, segName(seg))) == nil {
				removed = true
			}
		}
	}
	for _, b := range st.snaps {
		if b < boundary {
			if os.Remove(filepath.Join(s.dir, snapName(b))) == nil {
				removed = true
			}
		}
	}
	if removed {
		syncDir(s.dir)
	}
}

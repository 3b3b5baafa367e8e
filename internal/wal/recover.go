package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	core "repro/internal/core"
	"repro/internal/expiry"
)

// RecoverStats reports what startup recovery found and did.
type RecoverStats struct {
	// SnapshotSeg is the boundary of the snapshot that was loaded: the
	// first segment it does not cover. 0 when no snapshot was used.
	SnapshotSeg uint64
	// SnapshotRecords is the number of entries restored from the snapshot.
	SnapshotRecords int
	// Segments and Records count the replayed log segments and the redo
	// records applied from them.
	Segments int
	Records  int
	// TornBytes is how much of the last segment was truncated away as a
	// torn tail (an append interrupted by the crash).
	TornBytes int64
}

// dirState is the parsed contents of a log directory.
type dirState struct {
	segs  []uint64 // ascending segment numbers
	snaps []uint64 // ascending snapshot boundaries
}

// scanDir classifies the directory entries. Unknown files (including
// leftover snapshot temporaries) are ignored; stale .tmp files are removed.
func scanDir(dir string) (dirState, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return dirState{}, err
	}
	var st dirState
	for _, e := range ents {
		name := e.Name()
		switch {
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".seg") && len(name) == 24:
			n, err := strconv.ParseUint(name[4:20], 16, 64)
			if err == nil {
				st.segs = append(st.segs, n)
			}
		case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap") && len(name) == 26:
			n, err := strconv.ParseUint(name[5:21], 16, 64)
			if err == nil {
				st.snaps = append(st.snaps, n)
			}
		case strings.HasSuffix(name, ".tmp"):
			os.Remove(filepath.Join(dir, name))
		}
	}
	sort.Slice(st.segs, func(i, j int) bool { return st.segs[i] < st.segs[j] })
	sort.Slice(st.snaps, func(i, j int) bool { return st.snaps[i] < st.snaps[j] })
	return st, nil
}

// recoverDir rebuilds the table state from dir: pick the newest usable
// snapshot, replay every segment at or after its boundary, truncate a torn
// tail in the last segment, and return the number the next segment should
// take. h is the replay handle (single-goroutine; the Store is not serving
// yet).
func recoverDir(dir string, h *core.Handle, cfg *core.Config, idx *expiry.Index, st dirState) (nextSeg uint64, stats RecoverStats, err error) {
	// Replay starts at the snapshot boundary. A snapshot is usable only if
	// the segments at or after its boundary are present without gaps —
	// compaction deletes covered segments, so after the newest snapshot
	// was written an older one no longer has the segments it would need.
	boundary := uint64(0)
	var snapRecs int
	for i := len(st.snaps) - 1; i >= 0; i-- {
		b := st.snaps[i]
		if !segsCoverFrom(st.segs, b) {
			return 0, stats, fmt.Errorf("wal: snapshot %s needs segments the directory no longer holds", snapName(b))
		}
		n, lerr := loadSnapshot(filepath.Join(dir, snapName(b)), h, cfg, idx)
		if lerr != nil {
			// A snapshot is written to a temp file, fsynced and renamed,
			// so a corrupt one means disk damage, not a crash artifact.
			// An older snapshot can only help if its segments survived.
			if i > 0 && segsCoverFrom(st.segs, st.snaps[i-1]) {
				continue
			}
			return 0, stats, fmt.Errorf("wal: load %s: %w", snapName(b), lerr)
		}
		boundary, snapRecs = b, n
		break
	}
	stats.SnapshotSeg = boundary
	stats.SnapshotRecords = snapRecs

	replay := st.segs
	for len(replay) > 0 && replay[0] < boundary {
		replay = replay[1:]
	}
	for i, seg := range replay {
		last := i == len(replay)-1
		n, torn, rerr := replaySegment(filepath.Join(dir, segName(seg)), h, cfg, idx, last)
		if rerr != nil {
			return 0, stats, fmt.Errorf("wal: replay %s: %w", segName(seg), rerr)
		}
		stats.Segments++
		stats.Records += n
		stats.TornBytes += torn
	}

	nextSeg = boundary + 1
	if len(st.segs) > 0 {
		nextSeg = st.segs[len(st.segs)-1] + 1
	}
	if nextSeg == 0 {
		nextSeg = 1
	}
	return nextSeg, stats, nil
}

// segsCoverFrom reports whether segs (ascending) contains a gap-free run
// covering every segment from boundary b to the newest. An empty tail is
// fine — there is simply nothing to replay. Otherwise the run must start
// at b itself: the snapshotter's rotation created segment b before the
// snapshot was written, so its absence means compaction for a newer
// snapshot already removed segments this one would need.
func segsCoverFrom(segs []uint64, b uint64) bool {
	i := 0
	for i < len(segs) && segs[i] < b {
		i++
	}
	tail := segs[i:]
	if len(tail) == 0 {
		return true
	}
	if tail[0] != b {
		return false
	}
	for j := 1; j < len(tail); j++ {
		if tail[j] != tail[j-1]+1 {
			return false
		}
	}
	return true
}

// replaySegment applies every record of one segment file. In the last
// segment a short or corrupt tail is a torn write: the file is truncated
// back to the end of the last complete record. Anywhere else it is
// corruption and recovery fails.
func replaySegment(path string, h *core.Handle, cfg *core.Config, idx *expiry.Index, last bool) (records int, torn int64, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, err
	}
	off := 0
	for off < len(b) {
		r, n, derr := DecodeRecord(b[off:])
		if derr != nil {
			if !last {
				return records, 0, derr
			}
			torn = int64(len(b) - off)
			if terr := os.Truncate(path, int64(off)); terr != nil {
				return records, torn, terr
			}
			return records, torn, nil
		}
		if aerr := applyRecord(h, cfg, idx, &r); aerr != nil {
			return records, 0, aerr
		}
		off += n
		records++
	}
	return records, 0, nil
}

// loadSnapshot validates and applies a snapshot file. The whole file is
// decoded before anything is applied, so a corrupt snapshot leaves the
// table untouched and the caller can fall back to an older one.
func loadSnapshot(path string, h *core.Handle, cfg *core.Config, idx *expiry.Index) (int, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var recs []Record
	for off := 0; off < len(b); {
		r, n, derr := DecodeRecord(b[off:])
		if derr != nil {
			return 0, derr
		}
		recs = append(recs, r)
		off += n
	}
	for i := range recs {
		if err := applyRecord(h, cfg, idx, &recs[i]); err != nil {
			return 0, err
		}
	}
	return len(recs), nil
}

// applyRecord applies one redo record to the table. Replay is convergent,
// not strictly idempotent: a record may find the table already past it —
// the snapshot scan is weakly consistent and may include effects whose
// records live in replayed segments — so benign conflicts (duplicate
// insert, missing delete target) are tolerated; the final state of a key
// is always its last logged state. KV records are applied by the state
// machine that logged them (expiry.KV): an insert record is an
// unconditional Set — an upsert whose new block has no deadline, which
// is why a replace logs no delete record and a plain SET no TTL record —
// a delete record is a Delete, and an expire record replaces the pair's
// block with one carrying the deadline (or none); a pair logged with a
// deadline has an expire record after its insert record. Mode mismatches mean the
// directory was written under a different Config and fail recovery.
func applyRecord(h *core.Handle, cfg *core.Config, idx *expiry.Index, r *Record) error {
	kvKind := r.Kind == recInsertKV || r.Kind == recDeleteKV || r.Kind == recExpireKV
	if kvKind != (cfg.Mode == core.Allocator) {
		return fmt.Errorf("%w: record kind %d does not match table mode", ErrCorrupt, r.Kind)
	}
	switch r.Kind {
	case recPut:
		if _, ok := h.Put(r.Key, r.Val); !ok {
			// The put's target was visible when the op executed; if the
			// snapshot missed it (deleted later, scan raced), upserting
			// converges to the same final state the log prescribes.
			if _, err := h.Insert(r.Key, r.Val); err != nil && !errors.Is(err, core.ErrExists) {
				return err
			}
		}
	case recInsert:
		if _, err := h.Insert(r.Key, r.Val); err != nil && !errors.Is(err, core.ErrExists) {
			return err
		}
	case recDelete:
		h.Delete(r.Key)
	case recInsertShadow:
		if _, err := h.InsertShadow(r.Key, r.Val); err != nil &&
			!errors.Is(err, core.ErrExists) && !errors.Is(err, core.ErrShadow) {
			return err
		}
	case recCommitShadow:
		h.CommitShadow(r.Key, r.Commit)
	case recInsertKV:
		if err := h.Table().CheckKV(r.NS, r.K, r.V, true); err != nil {
			return err
		}
		if _, _, err := expiry.Bind(h, idx, nil).Set(r.NS, r.K, r.V, h.Table().HashOfKV(r.NS, r.K), 0, 0); err != nil {
			return err
		}
	case recDeleteKV:
		if err := h.Table().CheckKV(r.NS, r.K, nil, false); err != nil {
			return err
		}
		expiry.Bind(h, idx, nil).Delete(r.NS, r.K, h.Table().HashOfKV(r.NS, r.K))
	case recExpireKV:
		// The deadline is stored clock-free: whether it has passed is
		// decided once, by the purge after the last record.
		if err := h.Table().CheckKV(r.NS, r.K, nil, false); err != nil {
			return err
		}
		expiry.Bind(h, idx, nil).SetDeadline(r.NS, r.K, h.Table().HashOfKV(r.NS, r.K), r.At)
	default:
		return fmt.Errorf("%w: unknown record kind %d", ErrCorrupt, r.Kind)
	}
	return nil
}

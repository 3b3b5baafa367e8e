package wal

import (
	"sync/atomic"
	"testing"
	"time"

	core "repro/internal/core"
)

// kvTestConfig is the Allocator-mode (kv) analogue of openTest's config.
func kvTestConfig() core.Config {
	return core.Config{
		Bins:       1 << 10,
		Resizable:  true,
		Mode:       core.Allocator,
		VariableKV: true,
		Namespaces: true,
		EpochGC:    true,
	}
}

// openKV opens a durable kv store on a fake millisecond clock, with the
// background sweeper disabled so tests control exactly when expiry runs.
func openKV(t *testing.T, dir string, now *atomic.Int64) *Store {
	t.Helper()
	s, err := Open(dir, kvTestConfig(), Options{
		nowMs:         now.Load,
		noSweep:       true,
		SnapshotBytes: -1,
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func wantKV(t *testing.T, s *Store, ns uint16, key, want string) {
	t.Helper()
	v, ok := s.GetKV(ns, []byte(key))
	if !ok || string(v) != want {
		t.Fatalf("GetKV(%d,%q) = %q,%v; want %q,true", ns, key, v, ok, want)
	}
}

func wantMiss(t *testing.T, s *Store, ns uint16, key string) {
	t.Helper()
	if v, ok := s.GetKV(ns, []byte(key)); ok {
		t.Fatalf("GetKV(%d,%q) = %q; want miss", ns, key, v)
	}
}

// TestStoreTTLReopen: deadlines are durable. Keys that expired while the
// store was closed are purged at open; future deadlines, persisted keys
// and cleared TTLs all come back exactly as written.
func TestStoreTTLReopen(t *testing.T) {
	dir := t.TempDir()
	var now atomic.Int64
	now.Store(1000)
	s := openKV(t, dir, &now)

	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.PutTTL(0, []byte("dies"), []byte("v"), 500*time.Millisecond))
	must(s.PutTTL(0, []byte("lives"), []byte("v"), time.Hour))
	must(s.PutKV(0, []byte("forever"), []byte("v")))
	// TTL set then persisted: no deadline after replay.
	must(s.PutTTL(0, []byte("saved"), []byte("v"), 200*time.Millisecond))
	if ok, err := s.Persist(0, []byte("saved")); !ok || err != nil {
		t.Fatalf("Persist = %v,%v", ok, err)
	}
	// TTL set then overwritten by a plain put: the insert record alone
	// must clear the deadline on replay.
	must(s.PutTTL(0, []byte("cleared"), []byte("v1"), 200*time.Millisecond))
	must(s.PutKV(0, []byte("cleared"), []byte("v2")))
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen past "dies"'s deadline but inside every other one.
	now.Store(2000)
	r := openKV(t, dir, &now)
	wantMiss(t, r, 0, "dies")
	wantKV(t, r, 0, "lives", "v")
	if ttl, has, ok := r.TTL(0, []byte("lives")); !has || !ok || ttl <= 0 {
		t.Fatalf("TTL(lives) after reopen = %v,%v,%v", ttl, has, ok)
	}
	wantKV(t, r, 0, "forever", "v")
	for _, key := range []string{"saved", "cleared"} {
		if _, has, ok := r.TTL(0, []byte(key)); has || !ok {
			t.Fatalf("TTL(%s) after reopen: has=%v ok=%v; want false,true", key, has, ok)
		}
	}
	wantKV(t, r, 0, "cleared", "v2")
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// The open-time purge is unlogged, so "dies" replays and purges again
	// on every open until a snapshot captures the post-purge state.
	r2 := openKV(t, dir, &now)
	defer r2.Close()
	wantMiss(t, r2, 0, "dies")
	wantKV(t, r2, 0, "lives", "v")
}

// TestStoreTTLSnapshot: deadlines survive the snapshot + compaction path,
// not just raw log replay.
func TestStoreTTLSnapshot(t *testing.T) {
	dir := t.TempDir()
	var now atomic.Int64
	now.Store(1000)
	s := openKV(t, dir, &now)
	if err := s.PutTTL(2, []byte("snapped"), []byte("v"), time.Hour); err != nil {
		t.Fatalf("PutTTL: %v", err)
	}
	if err := s.PutKV(2, []byte("stable"), []byte("v")); err != nil {
		t.Fatalf("PutKV: %v", err)
	}
	if err := s.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	// A post-snapshot mutation, so recovery exercises snapshot + tail.
	if err := s.PutTTL(2, []byte("tail"), []byte("v"), time.Hour); err != nil {
		t.Fatalf("PutTTL(tail): %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	now.Store(2000)
	r := openKV(t, dir, &now)
	defer r.Close()
	if r.RecoverStats().SnapshotRecords == 0 {
		t.Fatal("recovery did not load a snapshot")
	}
	for _, key := range []string{"snapped", "tail"} {
		wantKV(t, r, 2, key, "v")
		if ttl, has, ok := r.TTL(2, []byte(key)); !has || !ok || ttl <= 0 {
			t.Fatalf("TTL(%s) after snapshot recovery = %v,%v,%v", key, ttl, has, ok)
		}
	}
	if _, has, ok := r.TTL(2, []byte("stable")); has || !ok {
		t.Fatalf("TTL(stable): has=%v ok=%v; want false,true", has, ok)
	}
}

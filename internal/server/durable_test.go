package server

import (
	"fmt"
	"io"
	"net"
	"testing"

	core "repro/internal/core"
	"repro/internal/engine"
	"repro/internal/wal"
)

// startDurableServer serves ds as the named table "dur" next to a RAM
// default table. The caller closes the server and the store explicitly
// (reopen tests need an ordered shutdown, not t.Cleanup's LIFO).
func startDurableServer(t *testing.T, ds *wal.Store) *Server {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := New(core.MustNew(core.Config{Bins: 64}), Options{})
	if err := s.AddDurable("dur", ds); err != nil {
		t.Fatal(err)
	}
	s.ln = ln
	go s.Serve(ln)
	return s
}

// TestDurableServerFixedOps drives fixed mutations against a durable
// table, asserts acknowledgements implied a covering group commit, and
// verifies the directory recovers the exact final state.
func TestDurableServerFixedOps(t *testing.T) {
	t.Run("conn", func(t *testing.T) {
		dir := t.TempDir()
		cfg := core.Config{Bins: 1 << 10, Resizable: true}
		ds, err := wal.Open(dir, cfg, wal.Options{SnapshotBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		s := startDurableServer(t, ds)
		cl := dialV2T(t, s, ClientOpts{Table: "dur"})

		const n = 300
		reqs := make([]Request, 0, n)
		for i := uint64(0); i < n; i++ {
			reqs = append(reqs, Request{Op: OpInsert, Key: i + 1, Value: i})
		}
		for i := uint64(0); i < n; i += 2 {
			reqs = append(reqs, Request{Op: OpPut, Key: i + 1, Value: i + 1000})
		}
		for i := uint64(0); i < n; i += 3 {
			reqs = append(reqs, Request{Op: OpDelete, Key: i + 1})
		}
		resps := make([]Response, len(reqs))
		if err := cl.Do(reqs, resps); err != nil {
			t.Fatalf("Do: %v", err)
		}
		effective := uint64(0)
		for i, r := range resps {
			if r.Status != StatusOK {
				t.Fatalf("req %d (%v): status %v", i, reqs[i].Op, r.Status)
			}
			effective++
		}
		// Every response above was acknowledged, so the log's sync
		// watermark must already cover every record — one per
		// effective mutation.
		if synced := ds.Log().Synced(); synced < effective {
			t.Fatalf("acked %d mutations but synced watermark is %d", effective, synced)
		}

		cl.Close()
		s.Close()
		if err := ds.Close(); err != nil {
			t.Fatal(err)
		}

		r, err := wal.Open(dir, cfg, wal.Options{})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer r.Close()
		for i := uint64(0); i < n; i++ {
			v, ok, _ := r.Get(i + 1)
			switch {
			case i%3 == 0:
				if ok {
					t.Fatalf("deleted key %d survived", i+1)
				}
			case i%2 == 0:
				if !ok || v != i+1000 {
					t.Fatalf("key %d = %d,%v; want %d", i+1, v, ok, i+1000)
				}
			default:
				if !ok || v != i {
					t.Fatalf("key %d = %d,%v; want %d", i+1, v, ok, i)
				}
			}
		}
	})
}

// TestDurableServerKV drives Allocator-mode KV mutations through the
// durable path and verifies recovery.
func TestDurableServerKV(t *testing.T) {
	t.Run("conn", func(t *testing.T) {
		dir := t.TempDir()
		cfg := core.Config{
			Bins: 1 << 10, Resizable: true, Mode: core.Allocator,
			VariableKV: true, Namespaces: true, EpochGC: true,
		}
		ds, err := wal.Open(dir, cfg, wal.Options{SnapshotBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		s := startDurableServer(t, ds)
		cl := dialV2T(t, s, ClientOpts{Table: "dur"})
		if cl.Features()&FeatureKV == 0 {
			t.Fatal("server did not grant FeatureKV")
		}

		const n = 64
		for i := 0; i < n; i++ {
			k := []byte(fmt.Sprintf("key-%03d-long-enough-to-spill", i))
			if err := cl.InsertKV(3, k, []byte(fmt.Sprintf("val-%d", i))); err != nil {
				t.Fatalf("InsertKV %d: %v", i, err)
			}
		}
		for i := 0; i < n; i += 2 {
			k := []byte(fmt.Sprintf("key-%03d-long-enough-to-spill", i))
			if ok, err := cl.DeleteKV(3, k); err != nil || !ok {
				t.Fatalf("DeleteKV %d: ok=%v err=%v", i, ok, err)
			}
		}
		if synced := ds.Log().Synced(); synced < n+n/2 {
			t.Fatalf("acked %d KV mutations but synced watermark is %d", n+n/2, synced)
		}

		cl.Close()
		s.Close()
		if err := ds.Close(); err != nil {
			t.Fatal(err)
		}

		r, err := wal.Open(dir, cfg, wal.Options{})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer r.Close()
		h := r.Table().MustHandle()
		defer h.Close()
		for i := 0; i < n; i++ {
			k := []byte(fmt.Sprintf("key-%03d-long-enough-to-spill", i))
			v, ok := h.GetKV(3, k)
			if want := i%2 == 1; ok != want {
				t.Fatalf("key %d present=%v want %v", i, ok, want)
			}
			if ok && string(v) != fmt.Sprintf("val-%d", i) {
				t.Fatalf("key %d = %q", i, v)
			}
		}
	})
}

// countingSyncer counts the group-commit waits a reply writer makes.
type countingSyncer struct {
	engine.WAL
	calls int
}

func (c *countingSyncer) SyncWait(seq uint64) error {
	c.calls++
	return c.WAL.SyncWait(seq)
}

// countingConn counts socket writes.
type countingConn struct {
	net.Conn
	writes int
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes++
	return c.Conn.Write(p)
}

// TestOwnedConnSyncsPerFlush: a connection waits for the group commit once
// per flush, not once per reply. 1000 pipelined durable InsertKVs whose replies fit
// one buffer used to cost 1000 SyncWaits — each a round trip to the sync
// goroutine with nothing to send yet.
func TestOwnedConnSyncsPerFlush(t *testing.T) {
	cfg := core.Config{Bins: 1 << 10, Resizable: true, Mode: core.Allocator, VariableKV: true, EpochGC: true}
	ds, err := wal.Open(t.TempDir(), cfg, wal.Options{SnapshotBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	s := New(core.MustNew(core.Config{Bins: 64}), Options{})
	defer s.Close()
	if err := s.AddDurable("dur", ds); err != nil {
		t.Fatal(err)
	}

	sy := &countingSyncer{WAL: ds.Log()}
	s.mu.Lock()
	s.walLogs[ds.Table()] = sy
	s.mu.Unlock()

	const n = 1000
	burst, err := AppendHello(nil, Hello{Version: ProtocolV2, Features: FeatureKV, Table: "dur"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		burst, err = AppendKVRequest(burst, KVRequest{Op: OpInsertKV, Key: []byte(fmt.Sprintf("key-%04d", i)), Value: []byte("v")})
		if err != nil {
			t.Fatal(err)
		}
	}
	cli, srvEnd := net.Pipe()
	defer cli.Close()
	srv := &countingConn{Conn: srvEnd}
	served := make(chan struct{})
	go func() {
		defer close(served)
		defer srv.Close()
		s.serveConn(srv)
	}()
	go cli.Write(burst)
	replies := make([]byte, HelloRespSize+n*KVRespHdrSize)
	if _, err := io.ReadFull(cli, replies); err != nil {
		t.Fatal(err)
	}
	if hr, err := DecodeHelloResp(replies); err != nil || hr.Status != StatusOK {
		t.Fatalf("handshake reply %+v, %v", hr, err)
	}
	replies = replies[HelloRespSize:]
	for i := 0; i < n; i++ {
		if st := Status(replies[i*KVRespHdrSize]); st != StatusOK {
			t.Fatalf("InsertKV %d: %v", i, st)
		}
	}
	if synced := ds.Log().Synced(); synced < n {
		t.Fatalf("acked %d inserts but synced watermark is %d", n, synced)
	}
	cli.Close()
	<-served
	if sy.calls > srv.writes || sy.calls >= n/10 {
		t.Fatalf("%d SyncWaits for %d replies in %d socket writes; want at most one per write", sy.calls, n, srv.writes)
	}
}

package server

import (
	"net"
	"strings"
	"testing"
	"time"

	core "repro/internal/core"
	"repro/internal/resp"
	"repro/internal/wal"
)

// startRESPServer runs a server with both listeners live: the v1/v2
// binary one and a RESP2 one, returning the RESP listener's address.
func startRESPServer(t *testing.T, s *Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s.ln = ln
	go s.Serve(ln)
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.ServeRESP(rln)
	return rln.Addr().String()
}

func dialRESP(t *testing.T, addr string) *resp.Client {
	t.Helper()
	cl, err := resp.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func respDo(t *testing.T, cl *resp.Client, args ...string) resp.Reply {
	t.Helper()
	r, err := cl.Do(args...)
	if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	return r
}

// TestRESPBesideBinaryAcrossModes: the RESP listener and the binary
// listener serve the same table concurrently — writes from one protocol
// are reads on the other.
func TestRESPBesideBinaryAcrossModes(t *testing.T) {
	t.Run("conn", func(t *testing.T) {
		tbl := core.MustNew(core.Config{
			Mode: core.Allocator, Bins: 1 << 10, Resizable: true,
			VariableKV: true, Namespaces: true, EpochGC: true,
			MaxThreads: 64,
		})
		s := New(tbl, Options{})
		addr := startRESPServer(t, s)
		t.Cleanup(func() { s.Close() })

		rc := dialRESP(t, addr)
		bc := dialV2T(t, s, ClientOpts{})

		// RESP write → binary read.
		if r := respDo(t, rc, "SET", "shared", "from-resp"); r.Text() != "OK" {
			t.Fatalf("SET = %+v", r)
		}
		if v, ok, err := bc.GetKV(0, []byte("shared")); err != nil || !ok || string(v) != "from-resp" {
			t.Fatalf("binary GetKV = (%q,%v,%v)", v, ok, err)
		}
		// Binary write → RESP read.
		if err := bc.InsertKV(0, []byte("binkey"), []byte("from-binary")); err != nil {
			t.Fatal(err)
		}
		if r := respDo(t, rc, "GET", "binkey"); string(r.Bulk) != "from-binary" {
			t.Fatalf("RESP GET = %+v", r)
		}
		// SELECT maps onto the binary protocol's namespaces.
		if r := respDo(t, rc, "SELECT", "3"); r.Text() != "OK" {
			t.Fatalf("SELECT = %+v", r)
		}
		if r := respDo(t, rc, "SET", "nsk", "ns3"); r.Text() != "OK" {
			t.Fatalf("SET ns3 = %+v", r)
		}
		if v, ok, err := bc.GetKV(3, []byte("nsk")); err != nil || !ok || string(v) != "ns3" {
			t.Fatalf("binary GetKV ns3 = (%q,%v,%v)", v, ok, err)
		}
		// Binary delete → RESP miss.
		if ok, err := bc.DeleteKV(0, []byte("shared")); err != nil || !ok {
			t.Fatalf("binary DeleteKV = (%v,%v)", ok, err)
		}
		if r := respDo(t, rc, "GET", "shared"); !r.Null {
			t.Fatalf("GET after binary delete = %+v", r)
		}
	})
}

// TestRESPDurableTable: Options.RESPTable selects a durable store's table;
// RESP TTL writes are visible over the binary protocol, expire for both,
// and the acknowledged state survives a restart.
func TestRESPDurableTable(t *testing.T) {
	dir := t.TempDir()
	cfg := core.Config{
		Mode: core.Allocator, Bins: 1 << 10, Resizable: true,
		VariableKV: true, Namespaces: true, EpochGC: true,
		MaxThreads: 64,
	}
	ds, err := wal.Open(dir, cfg, wal.Options{SnapshotBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	s := New(core.MustNew(core.Config{Bins: 64}), Options{RESPTable: "dur"})
	if err := s.AddDurable("dur", ds); err != nil {
		t.Fatal(err)
	}
	addr := startRESPServer(t, s)

	rc := dialRESP(t, addr)
	bc := dialV2T(t, s, ClientOpts{Table: "dur"})

	if r := respDo(t, rc, "SET", "ephemeral", "v", "PX", "60"); r.Text() != "OK" {
		t.Fatalf("SET PX = %+v", r)
	}
	if r := respDo(t, rc, "SET", "durable", "v", "EX", "100"); r.Text() != "OK" {
		t.Fatalf("SET EX = %+v", r)
	}
	// Cross-protocol visibility is asserted on the EX 100 key: the PX 60
	// key's deadline runs on the wall clock from its SET, so a binary read
	// of it may land past the deadline on a loaded host.
	if v, ok, err := bc.GetKV(0, []byte("durable")); err != nil || !ok || string(v) != "v" {
		t.Fatalf("binary GetKV of a TTL'd key = (%q,%v,%v)", v, ok, err)
	}
	// Past the deadline the RESP side answers a miss; the store's sweeper
	// reclaims it for the binary side too.
	time.Sleep(100 * time.Millisecond)
	if r := respDo(t, rc, "GET", "ephemeral"); !r.Null {
		t.Fatalf("GET after TTL = %+v", r)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, ok, err := bc.GetKV(0, []byte("ephemeral")); err == nil && !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sweeper never reclaimed the expired key for the binary path")
		}
		time.Sleep(10 * time.Millisecond)
	}

	rc.Close()
	bc.Close()
	s.Close()
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	r2, err := wal.Open(dir, cfg, wal.Options{SnapshotBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if _, ok := r2.GetKV(0, []byte("ephemeral")); ok {
		t.Fatal("expired key resurrected by replay")
	}
	if v, ok := r2.GetKV(0, []byte("durable")); !ok || string(v) != "v" {
		t.Fatalf("durable key after reopen = (%q,%v)", v, ok)
	}
	if ttl, has, ok := r2.TTL(0, []byte("durable")); !has || !ok || ttl <= 0 {
		t.Fatalf("TTL after reopen = (%v,%v,%v)", ttl, has, ok)
	}
}

// TestRESPRefusals: connections against a missing or wrong-mode RESP
// table get one clean -ERR line, and the server stays healthy.
func TestRESPRefusals(t *testing.T) {
	// Default table is Inlined, not kv.
	s := New(core.MustNew(core.Config{Bins: 64}), Options{})
	addr := startRESPServer(t, s)
	t.Cleanup(func() { s.Close() })

	rc := dialRESP(t, addr)
	if err := rc.SendStr("PING"); err != nil {
		t.Fatal(err)
	}
	if err := rc.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := rc.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !r.IsErr() || !strings.Contains(r.Str, "kv") {
		t.Fatalf("refusal reply = %+v", r)
	}
	// The binary listener is unaffected.
	bc := dialV2T(t, s, ClientOpts{})
	if _, inserted, err := bc.Insert(1, 1); err != nil || !inserted {
		t.Fatalf("binary path unhealthy: %v", err)
	}

	// An unregistered RESP table name also refuses cleanly.
	s2 := New(core.MustNew(core.Config{Bins: 64}), Options{RESPTable: "nope"})
	addr2 := startRESPServer(t, s2)
	t.Cleanup(func() { s2.Close() })
	rc2 := dialRESP(t, addr2)
	if err := rc2.SendStr("PING"); err != nil {
		t.Fatal(err)
	}
	if err := rc2.Flush(); err != nil {
		t.Fatal(err)
	}
	if r, err := rc2.Recv(); err != nil || !r.IsErr() {
		t.Fatalf("unregistered-table reply = %+v, %v", r, err)
	}
}

// TestRESPCloseUnderLoad: Close with live RESP connections mid-burst
// neither hangs nor panics, and sweeper handles are released.
func TestRESPCloseUnderLoad(t *testing.T) {
	tbl := core.MustNew(core.Config{
		Mode: core.Allocator, Bins: 1 << 10, Resizable: true,
		VariableKV: true, Namespaces: true, EpochGC: true,
		MaxThreads: 64,
	})
	s := New(tbl, Options{})
	addr := startRESPServer(t, s)

	done := make(chan struct{})
	go func() {
		defer close(done)
		cl, err := resp.Dial(addr)
		if err != nil {
			return
		}
		defer cl.Close()
		for i := 0; ; i++ {
			if err := cl.SendStr("SET", "k", "v"); err != nil {
				return
			}
			if i%64 == 0 {
				if err := cl.Flush(); err != nil {
					return
				}
				for cl.Pending > 0 {
					if _, err := cl.Recv(); err != nil {
						return
					}
				}
			}
		}
	}()
	time.Sleep(50 * time.Millisecond)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("RESP connection survived Close")
	}
}

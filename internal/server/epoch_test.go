package server

import (
	"bytes"
	"fmt"
	"testing"

	core "repro/internal/core"
)

// TestIdleConnDoesNotPinEpoch: a connection that reads once and then sits
// idle must not freeze epoch reclamation for its whole table. A handle
// keeps its epoch pin between ops, so its GetKV views stay valid, and the
// global epoch cannot advance past a pinned participant that lags; a
// reader about to block with nothing in flight therefore drops its pin.
// While the first connection idles, a second one churns SET/DEL over 64
// keys: the blocks it deletes must be freed, and the arena must stay
// bounded, over RESP and over binary KV frames alike.
func TestIdleConnDoesNotPinEpoch(t *testing.T) {
	const (
		keys   = 64
		rounds = 300
		burst  = 128 // commands per pipelined round trip
	)
	val := bytes.Repeat([]byte("v"), 1<<10)
	key := func(i int) []byte { return fmt.Appendf(nil, "key-%02d", i%keys) }
	start := func(t *testing.T) (*core.Table, *Server, string) {
		tbl := core.MustNew(core.Config{
			Mode: core.Allocator, Bins: 1 << 10, Resizable: true,
			VariableKV: true, Namespaces: true, EpochGC: true, MaxThreads: 16,
		})
		s := New(tbl, Options{})
		addr := startRESPServer(t, s)
		t.Cleanup(func() { s.Close() })
		return tbl, s, addr
	}
	// Without reclamation every churned block stays allocated: rounds ×
	// keys blocks of a 1 KiB value, 29 MB of arena. Reclaiming, what is
	// held is the live keys plus a few epoch advances' worth of retired
	// blocks (1.2 MB): the churner advances every 1024 commands, 512 of
	// them SETs.
	check := func(t *testing.T, tbl *core.Table) {
		t.Helper()
		st := tbl.Stats()
		t.Logf("EpochFrees %d, HeapUsed %d", st.EpochFrees, st.AllocatorStats.HeapUsed)
		if st.EpochFrees == 0 {
			t.Fatal("no block reclaimed while a connection idled: its epoch pin froze the table")
		}
		if max := uint64(4 << 20); st.AllocatorStats.HeapUsed > max {
			t.Fatalf("arena holds %d bytes after churn, want at most %d", st.AllocatorStats.HeapUsed, max)
		}
	}

	t.Run("resp", func(t *testing.T) {
		tbl, _, addr := start(t)
		idle := dialRESP(t, addr)
		respDo(t, idle, "GET", "key-00")
		churn := dialRESP(t, addr)
		for n := 0; n < 2*keys*rounds; n += burst {
			for i := n; i < n+burst; i += 2 {
				if err := churn.Send([]byte("SET"), key(i/2), val); err != nil {
					t.Fatal(err)
				}
				if err := churn.Send([]byte("DEL"), key(i/2)); err != nil {
					t.Fatal(err)
				}
			}
			if err := churn.Flush(); err != nil {
				t.Fatal(err)
			}
			for churn.Pending > 0 {
				if r, err := churn.Recv(); err != nil || r.IsErr() {
					t.Fatalf("churn reply = %+v, %v", r, err)
				}
			}
		}
		check(t, tbl)
	})

	t.Run("binary", func(t *testing.T) {
		tbl, s, _ := start(t)
		idle := dialV2T(t, s, ClientOpts{})
		if _, _, err := idle.GetKV(0, key(0)); err != nil {
			t.Fatal(err)
		}
		churn := dialV2T(t, s, ClientOpts{})
		outs := make([]reply, burst)
		for n := 0; n < 2*keys*rounds; n += burst {
			for i := n; i < n+burst; i++ {
				req := KVRequest{Op: OpDeleteKV, Key: key(i / 2)}
				if i%2 == 0 {
					req = KVRequest{Op: OpInsertKV, Key: key(i / 2), Value: val}
				}
				frame, err := AppendKVRequest(nil, req)
				if err != nil {
					t.Fatal(err)
				}
				if err := churn.enqueue(pending{op: req.Op, out: &outs[i-n]}, frame); err != nil {
					t.Fatal(err)
				}
			}
			if err := churn.recvThrough(churn.head - 1); err != nil {
				t.Fatal(err)
			}
			for i := range outs {
				if outs[i].Status != StatusOK {
					t.Fatalf("churn op %d: %v", n+i, outs[i].Status)
				}
			}
		}
		check(t, tbl)
	})
}

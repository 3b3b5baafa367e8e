package server

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	core "repro/internal/core"
)

// TestResponseOrderAcrossModes: with many connections executing on one
// table at once, each connection's responses must still arrive in its own
// request order with per-key program-order results. Each connection
// pipelines a mixed script with heavy key reuse (the order-sensitive case:
// an Insert/Put/Delete/Get chain on one key answers differently under any
// reordering) and checks every response against a sequential model. The
// CI race job runs it under -race. The "conn" subtest here and in the
// other server tests names the one execution model: every binary
// connection runs its requests on the table handle it owns.
func TestResponseOrderAcrossModes(t *testing.T) {
	t.Run("conn", func(t *testing.T) {
		s := startServer(t, core.Config{Bins: 1 << 10, Resizable: true, MaxThreads: 32}, Options{})
		const (
			conns = 6
			n     = 1200
		)
		var wg sync.WaitGroup
		for c := 0; c < conns; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				cl, err := DialV2(s.Addr().String(), ClientOpts{})
				if err != nil {
					t.Error(err)
					return
				}
				defer cl.Close()
				base := uint64(c) * 1_000_000
				reqs := make([]Request, n)
				for i := range reqs {
					k := base + uint64(i%17) // heavy same-key reuse
					switch i % 4 {
					case 0:
						reqs[i] = Request{Op: OpInsert, Key: k, Value: uint64(i) + 1}
					case 1:
						reqs[i] = Request{Op: OpGet, Key: k}
					case 2:
						reqs[i] = Request{Op: OpPut, Key: k, Value: uint64(i) + 1}
					case 3:
						reqs[i] = Request{Op: OpDelete, Key: k}
					}
				}
				resps := make([]Response, n)
				if err := cl.Do(reqs, resps); err != nil {
					t.Error(err)
					return
				}
				// Replay against a sequential model: any response
				// delivered out of this connection's request order (or
				// any per-key execution reorder) shows up as a mismatch.
				model := map[uint64]uint64{}
				for i, r := range resps {
					req := reqs[i]
					prev, exists := model[req.Key]
					switch req.Op {
					case OpInsert:
						if exists {
							if r.Status != StatusExists || r.Result != prev {
								t.Errorf("conn %d resp %d: dup insert = %+v, model %d", c, i, r, prev)
								return
							}
						} else {
							if r.Status != StatusOK {
								t.Errorf("conn %d resp %d: insert = %+v", c, i, r)
								return
							}
							model[req.Key] = req.Value
						}
					case OpGet:
						if exists != (r.Status == StatusOK) || (exists && r.Result != prev) {
							t.Errorf("conn %d resp %d: get = %+v, model (%d,%v)", c, i, r, prev, exists)
							return
						}
					case OpPut:
						if exists != (r.Status == StatusOK) || (exists && r.Result != prev) {
							t.Errorf("conn %d resp %d: put = %+v, model (%d,%v)", c, i, r, prev, exists)
							return
						}
						if exists {
							model[req.Key] = req.Value
						}
					case OpDelete:
						if exists != (r.Status == StatusOK) || (exists && r.Result != prev) {
							t.Errorf("conn %d resp %d: delete = %+v, model (%d,%v)", c, i, r, prev, exists)
							return
						}
						delete(model, req.Key)
					}
				}
			}(c)
		}
		wg.Wait()
	})
}

// TestOversizedKVInsertRejected: a wire InsertKV whose key+value pair
// exceeds the slab arena's block bound must come back as a VALUE_SIZE
// status, not crash the server in the allocator (the wire format allows
// 16 MiB values; the arena serves 64 KiB blocks).
func TestOversizedKVInsertRejected(t *testing.T) {
	t.Run("conn", func(t *testing.T) {
		s := startServer(t, core.Config{
			Mode: core.Allocator, Bins: 1 << 8, Resizable: true,
			VariableKV: true, EpochGC: true, MaxThreads: 8,
		}, Options{})
		cl := dialV2T(t, s, ClientOpts{})
		err := cl.InsertKV(0, []byte("big"), bytes.Repeat([]byte("x"), 80<<10))
		if !errors.Is(err, core.ErrValueSize) {
			t.Fatalf("oversized InsertKV err = %v, want ErrValueSize", err)
		}
		// The server survived and the connection still works.
		if err := cl.InsertKV(0, []byte("ok"), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if v, ok, err := cl.GetKV(0, []byte("ok")); err != nil || !ok || string(v) != "v" {
			t.Fatalf("GetKV after rejection = (%q,%v,%v)", v, ok, err)
		}
	})
}

// TestWriterErrorTearsDownConn: a peer that keeps sending but never reads
// trips the writer's deadline; the writer must then close the connection
// so the reader stops consuming (and executing) requests whose responses
// nobody will see. Without the teardown the server would absorb the
// firehose forever and this test's write loop would never error.
func TestWriterErrorTearsDownConn(t *testing.T) {
	s := startServer(t, core.Config{Bins: 1 << 10, Resizable: true},
		Options{IdleTimeout: 200 * time.Millisecond, WriteBuffer: 4096})
	c, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	hello, err := AppendHello(nil, Hello{Version: ProtocolV2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(hello); err != nil {
		t.Fatal(err)
	}
	frame := AppendRequest(nil, Request{Op: OpGet, Key: 1})
	burst := make([]byte, 0, 64*len(frame))
	for i := 0; i < 64; i++ {
		burst = append(burst, frame...)
	}
	c.SetWriteDeadline(time.Now().Add(15 * time.Second))
	for i := 0; ; i++ {
		if _, err := c.Write(burst); err != nil {
			return // server hung up on us — the teardown worked
		}
		if i > 1<<20 {
			t.Fatal("server kept consuming a never-reading peer")
		}
	}
}

// TestCloseUnderLoad: Server.Close while connections are mid-pipeline must
// join the connection goroutines — after Close returns, no completion is
// in flight and every table handle the connections held is back with the
// table.
func TestCloseUnderLoad(t *testing.T) {
	const maxThreads = 8
	tbl := core.MustNew(core.Config{Bins: 1 << 10, Resizable: true, MaxThreads: maxThreads})
	s := New(tbl, Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s.ln = ln
	go s.Serve(ln)

	var wg sync.WaitGroup
	started := make(chan struct{}, 4)
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := DialV2(ln.Addr().String(), ClientOpts{})
			if err != nil {
				return // raced the close; fine
			}
			defer cl.Close()
			base := uint64(c) << 32
			reqs := make([]Request, 64)
			resps := make([]Response, 64)
			for i := uint64(0); ; i++ {
				for j := range reqs {
					reqs[j] = Request{Op: OpInsert, Key: base + i*64 + uint64(j), Value: i}
				}
				if err := cl.Do(reqs, resps); err != nil {
					return // server closed under us — expected
				}
				select {
				case started <- struct{}{}:
				default:
				}
			}
		}(c)
	}
	// Let the load ramp before pulling the plug.
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("load never started")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The connections are joined: their handles must all be back.
	for i := 0; i < maxThreads; i++ {
		h, err := tbl.Handle()
		if err != nil {
			t.Fatalf("handle %d not released after Close: %v", i, err)
		}
		defer h.Close()
	}
	wg.Wait()
}

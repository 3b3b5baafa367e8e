package server

import (
	"fmt"
	"net"
	"sync"
	"testing"

	core "repro/internal/core"
)

// startServer spins up a server on a loopback port and tears it down with
// the test.
func startServer(t testing.TB, cfg core.Config, opts Options) *Server {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := New(core.MustNew(cfg), opts)
	s.ln = ln // publish the address before Serve's goroutine runs
	go s.Serve(ln)
	t.Cleanup(func() { s.Close() })
	return s
}

func dialT(t testing.TB, s *Server) *Client {
	t.Helper()
	return dialV2T(t, s, ClientOpts{})
}

// rawClientT runs the handshake on a raw connection the test will write
// hand-built frames to, returning a client to receive the replies with.
func rawClientT(t testing.TB, c net.Conn) *Client {
	t.Helper()
	cl, err := NewClientV2(c, ClientOpts{})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// doWindow bounds Do's in-flight requests. Unbounded pipelining deadlocks
// once in-flight response bytes overrun the kernel socket buffers: the
// server blocks writing responses the client is not yet reading, stops
// reading, and the client's flush blocks in turn. 4096 responses are
// 36 KiB — comfortably inside default TCP buffers.
const doWindow = 4096

// Do is the suites' raw-opcode batch driver over the client's one
// enqueue/receive path: it pipelines all reqs, a doWindow at a time, and
// fills resps (same length) with the in-order responses.
func (cl *Client) Do(reqs []Request, resps []Response) error {
	if len(reqs) != len(resps) {
		return fmt.Errorf("server: Do: %d requests but %d response slots", len(reqs), len(resps))
	}
	outs := make([]reply, min(len(reqs), doWindow))
	for lo := 0; lo < len(reqs); lo += doWindow {
		n := min(len(reqs)-lo, doWindow)
		for i, r := range reqs[lo : lo+n] {
			if err := cl.enqueue(pending{op: r.Op, key: r.Key, out: &outs[i]}, AppendRequest(cl.frame[:0], r)); err != nil {
				return err
			}
		}
		if err := cl.recvThrough(cl.head - 1); err != nil {
			return err
		}
		for i := range outs[:n] {
			resps[lo+i] = outs[i].Response
		}
	}
	return nil
}

// enqueueT queues fixed-frame requests on the client's pending ring and
// returns the replies their completions will fill in.
func enqueueT(t testing.TB, cl *Client, reqs ...Request) []reply {
	t.Helper()
	outs := make([]reply, len(reqs))
	for i, r := range reqs {
		if err := cl.enqueue(pending{op: r.Op, key: r.Key, out: &outs[i]}, AppendRequest(cl.frame[:0], r)); err != nil {
			t.Fatal(err)
		}
	}
	return outs
}

// expect registers n fixed-frame responses the client did not send the
// requests for — the test writes those to the raw connection itself, or
// expects the stream to end instead — and returns the replies recvOne
// completes.
func (cl *Client) expect(n int) []reply {
	outs := make([]reply, n)
	for i := range outs {
		cl.push(pending{out: &outs[i]})
	}
	return outs
}

// TestRoundTripAllOps drives all four op kinds end to end over TCP — the
// acceptance-criteria round-trip test.
func TestRoundTripAllOps(t *testing.T) {
	s := startServer(t, core.Config{Bins: 1 << 10, Resizable: true}, Options{})
	cl := dialT(t, s)

	// INSERT fresh key.
	if _, inserted, err := cl.Insert(100, 7); err != nil || !inserted {
		t.Fatalf("Insert(100) = inserted=%v, err=%v", inserted, err)
	}
	// Duplicate INSERT reports the existing value.
	if existing, inserted, err := cl.Insert(100, 8); err != nil || inserted || existing != 7 {
		t.Fatalf("dup Insert = (%d,%v,%v), want (7,false,nil)", existing, inserted, err)
	}
	// GET hit.
	if v, ok, err := cl.Get(100); err != nil || !ok || v != 7 {
		t.Fatalf("Get(100) = (%d,%v,%v), want (7,true,nil)", v, ok, err)
	}
	// PUT overwrites and returns the previous value.
	if prev, ok, err := cl.Put(100, 9); err != nil || !ok || prev != 7 {
		t.Fatalf("Put(100,9) = (%d,%v,%v), want (7,true,nil)", prev, ok, err)
	}
	if v, ok, _ := cl.Get(100); !ok || v != 9 {
		t.Fatalf("Get after Put = (%d,%v), want (9,true)", v, ok)
	}
	// PUT on a missing key misses.
	if _, ok, err := cl.Put(200, 1); err != nil || ok {
		t.Fatalf("Put(missing) ok=%v err=%v, want false,nil", ok, err)
	}
	// DELETE returns the deleted value; second DELETE misses.
	if prev, ok, err := cl.Delete(100); err != nil || !ok || prev != 9 {
		t.Fatalf("Delete(100) = (%d,%v,%v), want (9,true,nil)", prev, ok, err)
	}
	if _, ok, _ := cl.Delete(100); ok {
		t.Fatal("second Delete found the key")
	}
	// GET miss after delete.
	if _, ok, _ := cl.Get(100); ok {
		t.Fatal("Get found a deleted key")
	}
}

// TestPipelinedBatch pushes a deep pipeline in one flush and checks every
// in-order response, exercising the server's burst batching path.
func TestPipelinedBatch(t *testing.T) {
	s := startServer(t, core.Config{Bins: 1 << 12, Resizable: true}, Options{})
	cl := dialT(t, s)

	const n = 256
	reqs := make([]Request, 0, 3*n)
	for i := uint64(0); i < n; i++ {
		reqs = append(reqs, Request{Op: OpInsert, Key: i, Value: i * 10})
	}
	for i := uint64(0); i < n; i++ {
		reqs = append(reqs, Request{Op: OpGet, Key: i})
	}
	for i := uint64(0); i < n; i++ {
		reqs = append(reqs, Request{Op: OpDelete, Key: i})
	}
	resps := make([]Response, len(reqs))
	if err := cl.Do(reqs, resps); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < n; i++ {
		if resps[i].Status != StatusOK {
			t.Fatalf("insert %d: %v", i, resps[i].Status)
		}
		if r := resps[n+i]; r.Status != StatusOK || r.Result != i*10 {
			t.Fatalf("get %d = %+v, want OK %d", i, r, i*10)
		}
		if r := resps[2*n+i]; r.Status != StatusOK || r.Result != i*10 {
			t.Fatalf("delete %d = %+v, want OK %d", i, r, i*10)
		}
	}
}

// TestConcurrentConnections hammers the table from many connections at
// once; each owns a disjoint key range, and cross-connection visibility is
// checked at the end.
func TestConcurrentConnections(t *testing.T) {
	s := startServer(t, core.Config{Bins: 1 << 12, Resizable: true, MaxThreads: 64}, Options{})
	const conns, perConn = 8, 500
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := DialV2(s.Addr().String(), ClientOpts{})
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			base := uint64(c) * perConn
			reqs := make([]Request, 0, 2*perConn)
			for i := uint64(0); i < perConn; i++ {
				reqs = append(reqs, Request{Op: OpInsert, Key: base + i, Value: base + i})
				reqs = append(reqs, Request{Op: OpGet, Key: base + i})
			}
			resps := make([]Response, len(reqs))
			if err := cl.Do(reqs, resps); err != nil {
				errs <- err
				return
			}
			for i, r := range resps {
				if r.Status != StatusOK {
					t.Errorf("conn %d resp %d: %v", c, i, r.Status)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// All inserts visible through a fresh connection.
	cl := dialT(t, s)
	for c := 0; c < conns; c++ {
		k := uint64(c)*perConn + perConn/2
		if v, ok, err := cl.Get(k); err != nil || !ok || v != k {
			t.Fatalf("Get(%d) = (%d,%v,%v)", k, v, ok, err)
		}
	}
}

// TestMalformedFrameClosesConnection: a bad opcode elicits StatusBadRequest
// and a connection close, with earlier pipelined requests still answered.
func TestMalformedFrameClosesConnection(t *testing.T) {
	s := startServer(t, core.Config{Bins: 1 << 10, Resizable: true}, Options{})
	c, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var buf []byte
	buf = AppendRequest(buf, Request{Op: OpInsert, Key: 1, Value: 2})
	bad := AppendRequest(nil, Request{Op: OpGet, Key: 3})
	bad[0] = 0xee
	buf = append(buf, bad...)
	cl := rawClientT(t, c)
	if _, err := c.Write(buf); err != nil {
		t.Fatal(err)
	}
	outs := cl.expect(3)
	if err := cl.recvOne(); err != nil || outs[0].Status != StatusOK {
		t.Fatalf("prefix response = %+v, %v; want OK", outs[0].Response, err)
	}
	if err := cl.recvOne(); err != nil || outs[1].Status != StatusBadRequest {
		t.Fatalf("bad-frame response = %+v, %v; want BAD_REQUEST", outs[1].Response, err)
	}
	if err := cl.recvOne(); err == nil || outs[2].err != err {
		t.Fatalf("connection still open after malformed frame (recvOne %v, completion %v)", err, outs[2].err)
	}
	// The decodable prefix took effect.
	cl2 := dialT(t, s)
	if v, ok, _ := cl2.Get(1); !ok || v != 2 {
		t.Fatalf("Get(1) = (%d,%v), want (2,true)", v, ok)
	}
}

// TestHandleRecycling cycles far more connections than MaxThreads; without
// Handle.Close recycling the server would run out of handles.
func TestHandleRecycling(t *testing.T) {
	s := startServer(t, core.Config{Bins: 1 << 10, Resizable: true, MaxThreads: 4}, Options{})
	for i := 0; i < 64; i++ {
		cl, err := DialV2(s.Addr().String(), ClientOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := cl.Insert(uint64(i), uint64(i)); err != nil {
			t.Fatalf("conn %d: %v", i, err)
		}
		cl.Close()
	}
}

// TestBusyWhenHandlesExhausted: with every handle held by a live
// connection, a new connection's first request is answered with StatusBusy
// and the connection is closed — after consuming the request, so the
// response-matching rule holds.
func TestBusyWhenHandlesExhausted(t *testing.T) {
	s := startServer(t, core.Config{Bins: 1 << 10, Resizable: true, MaxThreads: 2}, Options{})
	// Pin both handles with live connections.
	for i := 0; i < 2; i++ {
		cl := dialT(t, s)
		if _, inserted, err := cl.Insert(uint64(i), 1); err != nil || !inserted {
			t.Fatalf("pin conn %d: inserted=%v err=%v", i, inserted, err)
		}
	}
	cl := dialT(t, s)
	out := enqueueT(t, cl, Request{Op: OpGet, Key: 0})
	eof := cl.expect(1)
	if err := cl.recvOne(); err != nil || out[0].Status != StatusBusy {
		t.Fatalf("resp = %+v, %v; want BUSY", out[0].Response, err)
	}
	if err := cl.recvOne(); err == nil || eof[0].err != err {
		t.Fatalf("connection still open after BUSY (recvOne %v, completion %v)", err, eof[0].err)
	}
}

// TestAcquireHandleWaitsForRelease: with the only handle pinned by a live
// connection, a second connection's request is served the moment the first
// connection closes — the release notification wakes the waiter instead of
// it sleep-polling (or giving up with StatusBusy).
func TestAcquireHandleWaitsForRelease(t *testing.T) {
	waiting := make(chan struct{}, 1)
	testHandleWait = func() {
		select {
		case waiting <- struct{}{}:
		default:
		}
	}
	// Registered before startServer's Close, so it runs after the server's
	// goroutines are joined.
	t.Cleanup(func() { testHandleWait = nil })
	s := startServer(t, core.Config{Bins: 1 << 10, Resizable: true, MaxThreads: 1}, Options{})
	cl1 := dialT(t, s)
	if _, inserted, err := cl1.Insert(1, 42); err != nil || !inserted {
		t.Fatalf("pin conn: inserted=%v err=%v", inserted, err)
	}
	// The second connection's serveConn blocks in acquireHandle; its request
	// sits buffered until the handle frees.
	cl2 := dialT(t, s)
	out := enqueueT(t, cl2, Request{Op: OpGet, Key: 1})
	if err := cl2.flush(); err != nil {
		t.Fatal(err)
	}
	<-waiting // cl2's goroutine is about to wait for a release
	cl1.Close()
	if err := cl2.recvOne(); err != nil || out[0].Status != StatusOK || out[0].Result != 42 {
		t.Fatalf("resp after release = %+v, %v; want OK 42", out[0].Response, err)
	}
}

// TestDeepBurstUncapped pushes a pipeline far deeper than the old 64-op
// batch cap through a default-options server: the whole burst flows through
// the sliding-window Exec in read-buffer-sized chunks.
func TestDeepBurstUncapped(t *testing.T) {
	s := startServer(t, core.Config{Bins: 1 << 12, Resizable: true}, Options{})
	cl := dialT(t, s)
	const n = 3000
	reqs := make([]Request, 0, 2*n)
	for i := uint64(0); i < n; i++ {
		reqs = append(reqs, Request{Op: OpInsert, Key: i, Value: i ^ 0xbeef})
	}
	for i := uint64(0); i < n; i++ {
		reqs = append(reqs, Request{Op: OpGet, Key: i})
	}
	resps := make([]Response, len(reqs))
	if err := cl.Do(reqs, resps); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < n; i++ {
		if resps[i].Status != StatusOK {
			t.Fatalf("insert %d: %v", i, resps[i].Status)
		}
		if r := resps[n+i]; r.Status != StatusOK || r.Result != i^0xbeef {
			t.Fatalf("get %d = %+v", i, r)
		}
	}
}

func TestServerClose(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := New(core.MustNew(core.Config{Bins: 1 << 8}), Options{})
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()
	cl, err := DialV2(ln.Addr().String(), ClientOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.Insert(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != ErrServerClosed {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
	if _, _, err := cl.Get(1); err == nil {
		t.Fatal("connection survived server Close")
	}
}

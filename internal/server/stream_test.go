package server

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	core "repro/internal/core"
)

// TestStreamingRepliesBeforeTailDecode is the streaming-reply regression
// test: for a 4096-deep burst, the first responses must reach the client
// while the burst's tail is still being decoded. The server-side decode
// hook blocks the burst's LAST frame until the client has received at
// least one response — with the old decode-whole-burst-then-Exec
// architecture no response could exist before the last decode and the
// test would time out.
func TestStreamingRepliesBeforeTailDecode(t *testing.T) {
	const (
		n       = 4096
		lastKey = n - 1
	)
	firstResp := make(chan struct{})
	var hookTimedOut atomic.Bool
	testFrameDecoded = func(op core.Op) {
		if op.Kind == core.OpGet && op.Key == lastKey {
			select {
			case <-firstResp:
			case <-time.After(30 * time.Second):
				hookTimedOut.Store(true) // unblock anyway; the test fails below
			}
		}
	}
	t.Cleanup(func() { testFrameDecoded = nil }) // registered first: runs after Close
	// A large read buffer lets the whole 68 KiB burst join one decode
	// chunk; a small write buffer gives an early streaming-flush threshold.
	s := startServer(t, core.Config{Bins: 1 << 13},
		Options{ReadBuffer: 128 << 10, WriteBuffer: 1 << 10})

	load := dialT(t, s)
	reqs := make([]Request, n)
	resps := make([]Response, n)
	for i := range reqs {
		reqs[i] = Request{Op: OpInsert, Key: uint64(i), Value: uint64(i) ^ 0xf00d}
	}
	if err := load.Do(reqs, resps); err != nil {
		t.Fatal(err)
	}

	c, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl := rawClientT(t, c)
	// Receive concurrently with the send, signalling the first response.
	got := make(chan []Response, 1)
	recvErr := make(chan error, 1)
	go func() {
		out := make([]Response, 0, n)
		for i := 0; i < n; i++ {
			cl.inflight = 1 // raw-conn receive; requests are written below
			r, err := cl.Recv()
			if err != nil {
				recvErr <- err
				return
			}
			if i == 0 {
				close(firstResp)
			}
			out = append(out, r)
		}
		got <- out
	}()

	var burst []byte
	for i := 0; i < n; i++ {
		burst = AppendRequest(burst, Request{Op: OpGet, Key: uint64(i)})
	}
	if _, err := c.Write(burst); err != nil {
		t.Fatal(err)
	}

	select {
	case err := <-recvErr:
		t.Fatal(err)
	case out := <-got:
		if hookTimedOut.Load() {
			t.Fatal("burst tail was decoded before the first response reached the client")
		}
		for i, r := range out {
			if r.Status != StatusOK || r.Result != uint64(i)^0xf00d {
				t.Fatalf("response %d = %+v, want OK %d", i, r, uint64(i)^0xf00d)
			}
		}
	case <-time.After(60 * time.Second):
		t.Fatal("burst never completed")
	}
}

// TestClientAsyncCallbacks drives the callback surface end to end: async
// sends complete in request order through Drain, and mixing plain Send
// in between leaves its response for Recv.
func TestClientAsyncCallbacks(t *testing.T) {
	s := startServer(t, core.Config{Bins: 1 << 10, Resizable: true}, Options{})
	cl := dialT(t, s)

	var order []uint64
	const n = 64
	for i := uint64(0); i < n; i++ {
		i := i
		if err := cl.InsertAsync(i, i*3, func(r Response) {
			if r.Status != StatusOK {
				t.Errorf("insert %d: %v", i, r.Status)
			}
			order = append(order, i)
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Drain(); err != nil {
		t.Fatal(err)
	}
	if len(order) != n {
		t.Fatalf("drained %d callbacks, want %d", len(order), n)
	}
	for i, k := range order {
		if k != uint64(i) {
			t.Fatalf("callback order %v not request order", order)
		}
	}

	// Async GET + plain Send interleaved: Recv dispatches the async head
	// then returns the plain response; Drain stops at a plain head.
	gets := 0
	if err := cl.GetAsync(1, func(r Response) {
		if r.Status != StatusOK || r.Result != 3 {
			t.Errorf("async Get(1) = %+v", r)
		}
		gets++
	}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Send(Request{Op: OpGet, Key: 2}); err != nil {
		t.Fatal(err)
	}
	if err := cl.GetAsync(3, func(r Response) {
		if r.Status != StatusOK || r.Result != 9 {
			t.Errorf("async Get(3) = %+v", r)
		}
		gets++
	}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := cl.Recv() // dispatches Get(1)'s callback first
	if err != nil || r.Status != StatusOK || r.Result != 6 {
		t.Fatalf("plain Recv = %+v, %v; want OK 6", r, err)
	}
	if gets != 1 {
		t.Fatalf("after Recv: %d async callbacks fired, want 1", gets)
	}
	if err := cl.Drain(); err != nil {
		t.Fatal(err)
	}
	if gets != 2 || cl.Inflight() != 0 {
		t.Fatalf("after Drain: %d callbacks, %d inflight", gets, cl.Inflight())
	}

	// PutAsync and DeleteAsync round out the helpers.
	if err := cl.PutAsync(1, 100, func(r Response) {
		if r.Status != StatusOK || r.Result != 3 {
			t.Errorf("PutAsync(1) = %+v", r)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := cl.DeleteAsync(2, func(r Response) {
		if r.Status != StatusOK || r.Result != 6 {
			t.Errorf("DeleteAsync(2) = %+v", r)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Drain(); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := cl.Get(1); !ok || v != 100 {
		t.Fatalf("Get(1) after PutAsync = (%d,%v)", v, ok)
	}
	if _, ok, _ := cl.Get(2); ok {
		t.Fatal("Get(2) found a key DeleteAsync removed")
	}
}

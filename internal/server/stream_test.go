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
	got := make(chan []reply, 1)
	recvErr := make(chan error, 1)
	out := cl.expect(n) // raw-conn receive; the requests are written below
	go func() {
		for i := 0; i < n; i++ {
			if err := cl.recvOne(); err != nil {
				recvErr <- err
				return
			}
			if i == 0 {
				close(firstResp)
			}
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

// TestClientAsyncCallbacks drives the completion surface end to end: a
// pipe's requests complete in request order, and a synchronous op issued
// while the pipe has requests in flight completes those ahead of it, in
// order, and returns its own answer.
func TestClientAsyncCallbacks(t *testing.T) {
	s := startServer(t, core.Config{Bins: 1 << 10, Resizable: true}, Options{})
	cl := dialT(t, s)

	var got []core.Completion
	p, err := cl.Pipe(core.PipeOpts{Window: 128, OnComplete: func(c core.Completion) { got = append(got, c) }})
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	for i := uint64(0); i < n; i++ {
		if err := p.Insert(i, i*3); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("flushed %d completions, want %d", len(got), n)
	}
	for i, c := range got {
		if c.Kind != core.OpInsert || c.Key != uint64(i) || !c.OK || c.Err != nil {
			t.Fatalf("completion %d = %+v, want an OK insert of key %d", i, c, i)
		}
	}

	// Pipe GET, sync GET, pipe GET: the sync op delivers Get(1)'s completion
	// on the way to its own answer and leaves Get(3) in flight.
	got = got[:0]
	if err := p.Get(1); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := cl.Get(2); err != nil || !ok || v != 6 {
		t.Fatalf("sync Get(2) with a pipe open = (%d,%v,%v), want (6,true,nil)", v, ok, err)
	}
	if len(got) != 1 || got[0].Key != 1 || got[0].Value != 3 {
		t.Fatalf("after the sync op: completions %+v, want Get(1)=3 only", got)
	}
	if err := p.Get(3); err != nil {
		t.Fatal(err)
	}
	if val, ok, err := cl.GetKV(0, []byte("k")); err == nil || ok || val != nil {
		t.Fatalf("sync GetKV on an inlined table = (%q,%v,%v), want a WrongMode error", val, ok, err)
	}
	if len(got) != 2 || got[1].Key != 3 || got[1].Value != 9 {
		t.Fatalf("after the sync KV op: completions %+v, want Get(3)=9 second", got)
	}
	if cl.head != cl.tail {
		t.Fatalf("%d requests still pending", cl.head-cl.tail)
	}

	// Put and Delete round out the pipe's kinds.
	got = got[:0]
	if err := p.Put(1, 100); err != nil {
		t.Fatal(err)
	}
	if err := p.Delete(2); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || !got[0].OK || got[0].Value != 3 || !got[1].OK || got[1].Value != 6 {
		t.Fatalf("Put/Delete completions = %+v, want previous values 3 and 6", got)
	}
	if v, ok, _ := cl.Get(1); !ok || v != 100 {
		t.Fatalf("Get(1) after Put = (%d,%v)", v, ok)
	}
	if _, ok, _ := cl.Get(2); ok {
		t.Fatal("Get(2) found a key Delete removed")
	}
}

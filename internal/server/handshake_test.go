package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	core "repro/internal/core"
	"repro/internal/expiry"
)

// dialV2T dials the server with the v2 handshake.
func dialV2T(t testing.TB, s *Server, opts ClientOpts) *Client {
	t.Helper()
	cl, err := DialV2(s.Addr().String(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// enqueueKV queues one KV request behind the record its reply completes.
func enqueueKV(cl *Client, req KVRequest, out *reply) error {
	frame, err := AppendKVRequest(cl.frame[:0], req)
	if err != nil {
		return err
	}
	return cl.enqueue(pending{op: req.Op, out: out}, frame)
}

// TestV2RoundTripAllOps: the fixed-frame op set on a handshaken connection
// that was granted FeatureKV.
func TestV2RoundTripAllOps(t *testing.T) {
	s := startServer(t, core.Config{Bins: 1 << 10, Resizable: true}, Options{})
	cl := dialV2T(t, s, ClientOpts{})
	if cl.Features()&FeatureKV == 0 {
		t.Fatal("server did not grant FeatureKV")
	}
	if _, inserted, err := cl.Insert(100, 7); err != nil || !inserted {
		t.Fatalf("Insert = inserted=%v err=%v", inserted, err)
	}
	if v, ok, err := cl.Get(100); err != nil || !ok || v != 7 {
		t.Fatalf("Get = (%d,%v,%v)", v, ok, err)
	}
	if prev, ok, err := cl.Put(100, 9); err != nil || !ok || prev != 7 {
		t.Fatalf("Put = (%d,%v,%v)", prev, ok, err)
	}
	if prev, ok, err := cl.Delete(100); err != nil || !ok || prev != 9 {
		t.Fatalf("Delete = (%d,%v,%v)", prev, ok, err)
	}
}

// TestHandshakelessClientRefused: a connection that opens with a request
// frame of the retired handshake-less protocol instead of a hello gets
// exactly one handshake reply carrying StatusBadVersion, then EOF — the
// same refusal a wrong-version hello gets — and costs the server no table
// handle.
func TestHandshakelessClientRefused(t *testing.T) {
	t.Run("conn", func(t *testing.T) {
		const maxThreads = 4
		s := startServer(t, core.Config{Bins: 1 << 8, MaxThreads: maxThreads}, Options{})
		c, err := net.Dial("tcp", s.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Write(AppendRequest(nil, Request{Op: OpGet, Key: 1})); err != nil {
			t.Fatal(err)
		}
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		got, err := io.ReadAll(c)
		if err != nil {
			t.Fatalf("read until EOF: %v", err)
		}
		if len(got) != HelloRespSize {
			t.Fatalf("server sent %d bytes (%x), want one %d-byte handshake reply", len(got), got, HelloRespSize)
		}
		resp, err := DecodeHelloResp(got)
		if err != nil || resp.Status != StatusBadVersion || resp.Version != ProtocolV2 {
			t.Fatalf("reply = %+v, %v; want BAD_VERSION naming v2", resp, err)
		}
		// EOF means the connection goroutine is done: nothing it could
		// have taken is still held.
		for i := 0; i < maxThreads; i++ {
			h, err := s.Table(DefaultTable).Handle()
			if err != nil {
				t.Fatalf("table handle %d of %d still held: %v", i+1, maxThreads, err)
			}
			defer h.Close()
		}
	})
}

// TestTableSelector: two v2 connections on different named tables of one
// server process see disjoint keyspaces.
func TestTableSelector(t *testing.T) {
	s := startServer(t, core.Config{Bins: 1 << 10, Resizable: true}, Options{})
	if err := s.AddTable("users", core.MustNew(core.Config{Bins: 1 << 8, Resizable: true})); err != nil {
		t.Fatal(err)
	}
	def := dialV2T(t, s, ClientOpts{})
	usr := dialV2T(t, s, ClientOpts{Table: "users"})

	if _, _, err := def.Insert(5, 50); err != nil {
		t.Fatal(err)
	}
	if _, _, err := usr.Insert(5, 99); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := def.Get(5); !ok || v != 50 {
		t.Fatalf("default table Get = (%d,%v), want 50", v, ok)
	}
	if v, ok, _ := usr.Get(5); !ok || v != 99 {
		t.Fatalf("users table Get = (%d,%v), want 99", v, ok)
	}
}

// TestUnknownTable: the handshake reply carries StatusUnknownTable (the
// ErrUnknownTable sentinel client-side) and the server closes.
func TestUnknownTable(t *testing.T) {
	s := startServer(t, core.Config{Bins: 1 << 8}, Options{})
	_, err := DialV2(s.Addr().String(), ClientOpts{Table: "nope"})
	if !errors.Is(err, ErrUnknownTable) {
		t.Fatalf("err = %v, want ErrUnknownTable", err)
	}
}

// TestBadVersion: requesting a version the server does not speak is
// refused with StatusBadVersion, and the reply names the version the
// server does speak.
func TestBadVersion(t *testing.T) {
	s := startServer(t, core.Config{Bins: 1 << 8}, Options{})
	c, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	hello, err := AppendHello(nil, Hello{Version: 99, Features: FeatureKV})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(hello); err != nil {
		t.Fatal(err)
	}
	var buf [HelloRespSize]byte
	if _, err := io.ReadFull(c, buf[:]); err != nil {
		t.Fatal(err)
	}
	resp, err := DecodeHelloResp(buf[:])
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusBadVersion || resp.Version != ProtocolV2 {
		t.Fatalf("resp = %+v, want BAD_VERSION granting v2", resp)
	}
	if !errors.Is(resp.Status.Err(), ErrBadVersion) {
		t.Fatalf("sentinel = %v", resp.Status.Err())
	}
	// Connection closed after the refusal.
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := c.Read(buf[:1]); err != io.EOF {
		t.Fatalf("read after refusal = %v, want EOF", err)
	}
}

// TestTruncatedHandshake: a handshake that declares a table name and then
// stops sending is cleanly dropped once the server gives up — no response,
// no panic, and the server keeps serving other connections.
func TestTruncatedHandshake(t *testing.T) {
	s := startServer(t, core.Config{Bins: 1 << 8, Resizable: true},
		Options{IdleTimeout: 50 * time.Millisecond})
	c, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Fixed prefix promising an 8-byte table name, then silence.
	if _, err := c.Write([]byte{HelloMagic, ProtocolV2, 0x01, 0x00, 8}); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	var one [1]byte
	if _, err := c.Read(one[:]); err != io.EOF {
		t.Fatalf("read = %v, want EOF (clean close, no reply)", err)
	}
	// Server is still healthy.
	cl := dialV2T(t, s, ClientOpts{})
	if _, inserted, err := cl.Insert(1, 1); err != nil || !inserted {
		t.Fatalf("server unhealthy after truncated handshake: %v", err)
	}
}

// TestKVRoundTrip: the v2 KV surface against an Allocator-mode table —
// variable sizes, namespaces, big keys — and sentinel mapping for
// mode/namespace violations.
func TestKVRoundTrip(t *testing.T) {
	tbl := core.MustNew(core.Config{
		Mode: core.Allocator, Bins: 1 << 10, Resizable: true,
		VariableKV: true, Namespaces: true, EpochGC: true,
	})
	s := New(tbl, Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s.ln = ln
	go s.Serve(ln)
	t.Cleanup(func() { s.Close() })
	cl := dialV2T(t, s, ClientOpts{})

	if err := cl.InsertKV(1, []byte("id-1001"), []byte(`{"name":"ada"}`)); err != nil {
		t.Fatal(err)
	}
	// Same key bytes, different namespace: no conflict.
	if err := cl.InsertKV(2, []byte("id-1001"), []byte(`{"total":9900}`)); err != nil {
		t.Fatal(err)
	}
	// A big key with a 1 KiB value.
	bigKey := bytes.Repeat([]byte("k"), 128)
	bigVal := bytes.Repeat([]byte("v"), 1024)
	if err := cl.InsertKV(0, bigKey, bigVal); err != nil {
		t.Fatal(err)
	}

	if v, ok, err := cl.GetKV(1, []byte("id-1001")); err != nil || !ok || string(v) != `{"name":"ada"}` {
		t.Fatalf("GetKV ns1 = (%q,%v,%v)", v, ok, err)
	}
	if v, ok, err := cl.GetKV(2, []byte("id-1001")); err != nil || !ok || string(v) != `{"total":9900}` {
		t.Fatalf("GetKV ns2 = (%q,%v,%v)", v, ok, err)
	}
	if v, ok, err := cl.GetKV(0, bigKey); err != nil || !ok || !bytes.Equal(v, bigVal) {
		t.Fatalf("GetKV big = (%d bytes,%v,%v)", len(v), ok, err)
	}
	if _, ok, err := cl.GetKV(0, []byte("absent")); err != nil || ok {
		t.Fatalf("GetKV miss = (%v,%v)", ok, err)
	}

	// Duplicate insert → core.ErrExists across the wire.
	if err := cl.InsertKV(1, []byte("id-1001"), []byte("x")); !errors.Is(err, core.ErrExists) {
		t.Fatalf("dup InsertKV err = %v, want ErrExists", err)
	}
	// Namespace without Namespaces... this table has them; out-of-range
	// namespaces cannot be encoded (uint16 field is masked server-side by
	// checkKV: ns > MaxNamespace). 0xffff > 0xfff.
	if err := cl.InsertKV(0xffff, []byte("k"), []byte("v")); !errors.Is(err, core.ErrNamespace) {
		t.Fatalf("bad ns err = %v, want ErrNamespace", err)
	}

	if ok, err := cl.DeleteKV(1, []byte("id-1001")); err != nil || !ok {
		t.Fatalf("DeleteKV = (%v,%v)", ok, err)
	}
	if _, ok, _ := cl.GetKV(1, []byte("id-1001")); ok {
		t.Fatal("GetKV found a deleted key")
	}
	if ok, err := cl.DeleteKV(1, []byte("id-1001")); err != nil || ok {
		t.Fatalf("second DeleteKV = (%v,%v)", ok, err)
	}

	// Mutating fixed-frame ops on an Allocator table report WrongMode —
	// and, critically, do not execute: an inlined Insert would plant a raw
	// uint64 where the table expects a block reference, and the Delete
	// would then free that bogus reference and crash the server.
	if _, _, err := cl.Put(1, 2); !errors.Is(err, core.ErrWrongMode) {
		t.Fatalf("Put on allocator table err = %v, want ErrWrongMode", err)
	}
	if _, _, err := cl.Insert(7, 0xdeadbeef); !errors.Is(err, core.ErrWrongMode) {
		t.Fatalf("Insert on allocator table err = %v, want ErrWrongMode", err)
	}
	if _, _, err := cl.Delete(7); !errors.Is(err, core.ErrWrongMode) {
		t.Fatalf("Delete on allocator table err = %v, want ErrWrongMode", err)
	}
	// The connection and the KV surface survive the refusals.
	if v, ok, err := cl.GetKV(2, []byte("id-1001")); err != nil || !ok || string(v) != `{"total":9900}` {
		t.Fatalf("GetKV after WrongMode refusals = (%q,%v,%v)", v, ok, err)
	}
}

// TestKVWrongMode: KV frames against the default Inlined table map onto
// core.ErrWrongMode rather than panicking the server (GetKV panics on
// local API misuse; over the wire it must be a status).
func TestKVWrongMode(t *testing.T) {
	s := startServer(t, core.Config{Bins: 1 << 8, Resizable: true}, Options{})
	cl := dialV2T(t, s, ClientOpts{})
	if _, _, err := cl.GetKV(0, []byte("k")); !errors.Is(err, core.ErrWrongMode) {
		t.Fatalf("GetKV err = %v, want ErrWrongMode", err)
	}
	if err := cl.InsertKV(0, []byte("k"), []byte("v")); !errors.Is(err, core.ErrWrongMode) {
		t.Fatalf("InsertKV err = %v, want ErrWrongMode", err)
	}
	// The connection survives a WrongMode status (unlike BadRequest).
	if _, inserted, err := cl.Insert(3, 33); err != nil || !inserted {
		t.Fatalf("connection dead after WrongMode: %v", err)
	}
}

// TestKVInterleavedWithFixedFrames: KV and fixed frames pipelined on one
// connection answer strictly in request order — GetKVs streaming through
// the KV pipeline, fixed frames through the fixed-op one, and mutations
// inline behind a barrier — and each GetKV sees the mutations ahead of it.
func TestKVInterleavedWithFixedFrames(t *testing.T) {
	tbl := core.MustNew(core.Config{
		Mode: core.Allocator, Bins: 1 << 10, Resizable: true, VariableKV: true, EpochGC: true,
	})
	s := New(tbl, Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s.ln = ln
	go s.Serve(ln)
	t.Cleanup(func() { s.Close() })
	cl := dialV2T(t, s, ClientOpts{})

	// One pipelined burst. Fixed frames are refused with WrongMode on an
	// allocator table, and must still answer in order. The keys are longer
	// than a slot word, so a GetKV compares its whole key at completion,
	// after later frames have reused the reader's staging.
	type step struct {
		req    KVRequest // Op OpGet: a fixed-frame Get
		status Status
		value  string
	}
	a, b := []byte("key-a-0123456789"), []byte("key-b-0123456789")
	script := []step{
		{KVRequest{Op: OpInsertKV, Key: a, Value: []byte("AAAAAAAA")}, StatusOK, ""},
		{KVRequest{Op: OpGet}, StatusWrongMode, ""},
		{KVRequest{Op: OpGetKV, Key: a}, StatusOK, "AAAAAAAA"},
		{KVRequest{Op: OpGetKV, Key: b}, StatusNotFound, ""},
		{KVRequest{Op: OpInsertKV, Key: b, Value: []byte("BBBB")}, StatusOK, ""},
		{KVRequest{Op: OpGet}, StatusWrongMode, ""},
		{KVRequest{Op: OpGetKV, Key: b}, StatusOK, "BBBB"},
		{KVRequest{Op: OpDeleteKV, Key: a}, StatusOK, ""},
		{KVRequest{Op: OpGetKV, Key: a}, StatusNotFound, ""},
	}
	outs := make([]reply, len(script))
	for i, st := range script {
		if st.req.Op == OpGet {
			err = cl.enqueue(pending{op: OpGet, out: &outs[i]}, AppendRequest(nil, Request{Op: OpGet, Key: 1}))
		} else {
			err = enqueueKV(cl, st.req, &outs[i])
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.recvThrough(cl.head - 1); err != nil {
		t.Fatal(err)
	}
	for i, st := range script {
		if outs[i].Status != st.status || string(outs[i].value) != st.value {
			t.Errorf("reply %d (%v %q) = %v %q, want %v %q", i, st.req.Op, st.req.Key,
				outs[i].Status, outs[i].value, st.status, st.value)
		}
	}
}

// TestKVConcurrentGetDelete: one connection streams pipelined GetKVs while
// another churns the same keys with insert/delete. On an EpochGC table
// (the dlht-server kv configuration) the reader's epoch pin keeps every
// block its in-flight lookups picked, and every value view, stable until
// the view is copied into the response — under -race this pins the
// absence of the get-vs-free race. Each value is tagged with its key, so a
// lookup that read a block freed and reused for another key is caught.
func TestKVConcurrentGetDelete(t *testing.T) {
	tbl := core.MustNew(core.Config{
		Mode: core.Allocator, Bins: 1 << 10, Resizable: true,
		VariableKV: true, EpochGC: true, MaxThreads: 8,
	})
	s := New(tbl, Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s.ln = ln
	go s.Serve(ln)
	t.Cleanup(func() { s.Close() })

	// Keys past the 8 bytes a slot word holds: a lookup's full compare
	// reads the block, after its prefetch.
	keys := [][]byte{[]byte("alpha-pair"), []byte("beta-pair"), []byte("gamma-pair"), []byte("delta-pair")}
	vals := make([][]byte, len(keys))
	for i, k := range keys {
		vals[i] = bytes.Repeat(append(append([]byte{}, k...), '/'), 256/(len(k)+1)+1)[:256]
	}
	seed := dialV2T(t, s, ClientOpts{})
	for i, k := range keys {
		if err := seed.InsertKV(0, k, vals[i]); err != nil {
			t.Fatal(err)
		}
	}

	const depth = 32 // GetKVs in flight per burst
	done := make(chan error, 2)
	go func() {
		cl, err := DialV2(s.Addr().String(), ClientOpts{})
		if err != nil {
			done <- err
			return
		}
		defer cl.Close()
		var outs [depth]reply
		for n := 0; n < 2000; n += depth {
			for i := range outs {
				if err := enqueueKV(cl, KVRequest{Op: OpGetKV, Key: keys[(n+i)%len(keys)]}, &outs[i]); err != nil {
					done <- err
					return
				}
			}
			if err := cl.recvThrough(cl.head - 1); err != nil {
				done <- err
				return
			}
			for i, r := range outs {
				want := vals[(n+i)%len(keys)]
				if r.Status == StatusOK && !bytes.Equal(r.value, want) {
					done <- fmt.Errorf("GetKV %q = %q, want %q", keys[(n+i)%len(keys)], r.value, want)
					return
				}
				if r.Status != StatusOK && r.Status != StatusNotFound {
					done <- fmt.Errorf("GetKV %q: %v", keys[(n+i)%len(keys)], r.Status)
					return
				}
			}
		}
		done <- nil
	}()
	go func() {
		cl, err := DialV2(s.Addr().String(), ClientOpts{})
		if err != nil {
			done <- err
			return
		}
		defer cl.Close()
		for i := 0; i < 2000; i++ {
			k := keys[i%len(keys)]
			if _, err := cl.DeleteKV(0, k); err != nil {
				done <- err
				return
			}
			if err := cl.InsertKV(0, k, vals[i%len(keys)]); err != nil && !errors.Is(err, core.ErrExists) {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestPipelinedGetKVOfExpiredKey is resp.TestPipelinedGetOfExpiredKey over
// binary frames: the deadline travels with the value, so a pipelined GetKV
// answers NotFound for a pair past it at completion — and the delete it
// owes runs at the next barrier, which the DeleteKV in the same burst is:
// by the time the burst's replies leave, the pair is gone from the table,
// not just from view.
func TestPipelinedGetKVOfExpiredKey(t *testing.T) {
	s := startServer(t, core.Config{
		Mode: core.Allocator, Bins: 1 << 10, Resizable: true,
		VariableKV: true, EpochGC: true, MaxThreads: 8,
	}, Options{})
	tbl := s.Table(DefaultTable)
	var now atomic.Int64
	now.Store(1000)
	ix := expiry.New(now.Load)
	s.mu.Lock()
	s.expiries[tbl] = ix // before the first connection: every KV op shares it
	s.mu.Unlock()
	h := tbl.MustHandle()
	defer h.Close()
	kv := expiry.Bind(h, ix, nil)
	for _, p := range []struct {
		key string
		at  int64
	}{{"dies", 1040}, {"stays", 0}, {"later", 5000}} {
		if _, _, err := kv.Set(0, []byte(p.key), []byte("v-"+p.key), tbl.HashOfKV(0, []byte(p.key)), p.at, 0); err != nil {
			t.Fatal(err)
		}
	}
	now.Store(1040)

	cl := dialV2T(t, s, ClientOpts{})
	script := []struct {
		op     OpCode
		key    string
		status Status
		value  string
	}{
		{OpGetKV, "stays", StatusOK, "v-stays"},
		{OpGetKV, "dies", StatusNotFound, ""},
		{OpGetKV, "later", StatusOK, "v-later"},
		{OpDeleteKV, "dies", StatusNotFound, ""},
		{OpGetKV, "dies", StatusNotFound, ""},
	}
	outs := make([]reply, len(script))
	for i, st := range script {
		if err := enqueueKV(cl, KVRequest{Op: st.op, Key: []byte(st.key)}, &outs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.recvThrough(cl.head - 1); err != nil {
		t.Fatal(err)
	}
	for i, st := range script {
		if outs[i].Status != st.status || string(outs[i].value) != st.value {
			t.Errorf("reply %d (%v %s) = %v %q, want %v %q", i, st.op, st.key, outs[i].Status, outs[i].value, st.status, st.value)
		}
	}
	if n := h.Len(); n != 2 {
		t.Fatalf("table holds %d pairs after the burst, want 2", n)
	}
}

// TestIdleTimeoutClosesStalledConn: with IdleTimeout set, a connection
// that handshakes and then goes silent is closed server-side; active
// connections are unaffected.
func TestIdleTimeoutClosesStalledConn(t *testing.T) {
	s := startServer(t, core.Config{Bins: 1 << 8, Resizable: true, MaxThreads: 8},
		Options{IdleTimeout: 50 * time.Millisecond})
	stalled := dialV2T(t, s, ClientOpts{})
	if _, inserted, err := stalled.Insert(1, 1); err != nil || !inserted {
		t.Fatal(err)
	}
	// Go silent; the server must hang up on us.
	deadline := time.Now().Add(5 * time.Second)
	var one [1]byte
	stalled.c.SetReadDeadline(deadline)
	if _, err := stalled.c.Read(one[:]); err == nil || errors.Is(err, net.ErrClosed) {
		t.Fatalf("stalled conn read = %v, want server-side close (EOF)", err)
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("server never closed the stalled connection")
	}
	// A fresh connection still works.
	cl := dialV2T(t, s, ClientOpts{})
	if v, ok, err := cl.Get(1); err != nil || !ok || v != 1 {
		t.Fatalf("Get after stall-close = (%d,%v,%v)", v, ok, err)
	}
}

// TestClientReadTimeout: a client with a read deadline gives up on a
// server that accepts but never answers.
func TestClientReadTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) { // swallow input, never reply
				io.Copy(io.Discard, c)
			}(c)
		}
	}()
	_, err = DialV2(ln.Addr().String(), ClientOpts{ReadTimeout: 50 * time.Millisecond})
	if err == nil {
		t.Fatal("handshake against a mute server succeeded")
	}
	ne, ok := err.(net.Error)
	if !ok || !ne.Timeout() {
		t.Fatalf("err = %v, want timeout", err)
	}
}

// TestSentinelErrorsAcrossBackends: the same errors.Is check passes for
// the same condition raised locally and over the wire (ErrFull on a full,
// non-resizable table).
func TestSentinelErrorsAcrossBackends(t *testing.T) {
	mkCfg := core.Config{Bins: 1, LinkRatio: 1, Resizable: false}

	// Local: fill the table until ErrFull.
	localFull := func() error {
		h := core.MustNew(mkCfg).MustHandle()
		for k := uint64(0); k < 1000; k++ {
			if _, err := h.Insert(k, k); err != nil {
				return err
			}
		}
		return nil
	}()
	if !errors.Is(localFull, core.ErrFull) {
		t.Fatalf("local err = %v, want ErrFull", localFull)
	}

	// Remote: the same condition through a client.
	s := startServer(t, mkCfg, Options{})
	cl := dialV2T(t, s, ClientOpts{})
	var remoteFull error
	for k := uint64(0); k < 1000 && remoteFull == nil; k++ {
		_, _, remoteFull = cl.Insert(k, k)
	}
	if !errors.Is(remoteFull, core.ErrFull) {
		t.Fatalf("remote err = %v, want ErrFull", remoteFull)
	}
}

// TestBusyKVShaped: a v2 connection refused for handle exhaustion whose
// first request is a KV frame receives a KV-shaped BUSY response, keeping
// the response-matching rule intact.
func TestBusyKVShaped(t *testing.T) {
	s := startServer(t, core.Config{Mode: core.Allocator, Bins: 1 << 8, VariableKV: true, EpochGC: true, MaxThreads: 2}, Options{})
	// Pin the only connection handle (a served kv table's TTL sweeper holds
	// the other).
	pin := dialV2T(t, s, ClientOpts{})
	if err := pin.InsertKV(0, []byte("pin"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	cl := dialV2T(t, s, ClientOpts{})
	_, _, err := cl.GetKV(0, []byte("k"))
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("err = %v, want ErrBusy", err)
	}
}

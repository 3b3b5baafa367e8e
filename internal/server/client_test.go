package server

import (
	"errors"
	"math/rand"
	"net"
	"testing"
	"time"

	"repro/internal/faultconn"

	core "repro/internal/core"
)

// TestClientPipeZeroAllocs: a steady-state pipelined fixed-frame op
// allocates nothing on the client — no per-op closure, no per-response
// read buffer.
func TestClientPipeZeroAllocs(t *testing.T) {
	s := startServer(t, core.Config{Bins: 1 << 10, Resizable: true}, Options{})
	cl := dialT(t, s)
	const keys = 256
	for k := uint64(0); k < keys; k++ {
		if _, _, err := cl.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	hits := 0
	p, err := cl.Pipe(core.PipeOpts{Window: 64, OnComplete: func(c core.Completion) {
		if c.OK {
			hits++
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	k := uint64(0)
	burst := func() {
		for i := 0; i < 512; i++ {
			if err := p.Get(k % keys); err != nil {
				t.Fatal(err)
			}
			k++
		}
	}
	burst() // warm: ring growth, buffers
	if allocs := testing.AllocsPerRun(20, burst); allocs != 0 {
		t.Fatalf("%.3f allocations per 512 pipelined Gets, want 0", allocs)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if hits != int(k) {
		t.Fatalf("%d hits for %d Gets on resident keys", hits, k)
	}
}

// TestWindowFlushesOncePerWindow pins the watermark: a pipe that keeps its
// window full writes to the socket once per window+1 requests, not once
// per request.
func TestWindowFlushesOncePerWindow(t *testing.T) {
	s := startServer(t, core.Config{Bins: 1 << 10, Resizable: true}, Options{})
	raw, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	cc := &countingConn{Conn: raw}
	cl, err := NewClientV2(cc, ClientOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const window, n = 15, 1600
	p, _ := cl.Pipe(core.PipeOpts{Window: window})
	before := cc.writes
	for i := uint64(0); i < n; i++ {
		if err := p.Get(i); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := cc.writes-before, n/(window+1); got != want {
		t.Fatalf("%d socket writes for %d requests at window %d, want %d", got, n, window, want)
	}
}

// TestReshardFramesRequireFeature: GetVer and ScanStep are refused
// locally, before any byte is sent, on a connection the handshake did not
// grant FeatureReshard. Granted, both answer WrongMode on a kv table: its
// slot words are block refs, neither a value nor a version's key.
func TestReshardFramesRequireFeature(t *testing.T) {
	s := startServer(t, core.Config{Bins: 1 << 10, Resizable: true}, Options{})
	cl := dialT(t, s)
	if _, _, _, err := cl.GetVer(1); !errors.Is(err, ErrFeature) {
		t.Fatalf("GetVer without FeatureReshard: %v, want ErrFeature", err)
	}
	if _, _, _, err := cl.ScanStep(core.Cursor{}, 16); !errors.Is(err, ErrFeature) {
		t.Fatalf("ScanStep without FeatureReshard: %v, want ErrFeature", err)
	}
	if _, inserted, err := cl.Insert(1, 10); err != nil || !inserted {
		t.Fatalf("connection unusable after the refusals: %v", err)
	}

	kv := core.MustNew(core.Config{Mode: core.Allocator, Bins: 1 << 10, VariableKV: true, EpochGC: true})
	if err := s.AddTable("kv", kv); err != nil {
		t.Fatal(err)
	}
	if err := kv.MustHandle().InsertKV(0, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	rcl := dialV2T(t, s, ClientOpts{Table: "kv", Features: FeatureKV | FeatureReshard})
	if _, ok, _, err := rcl.GetVer(0); ok || !errors.Is(err, core.ErrWrongMode) {
		t.Fatalf("GetVer on a kv table: ok=%v err=%v, want ErrWrongMode", ok, err)
	}
	if _, _, _, err := rcl.ScanStep(core.Cursor{}, 16); !errors.Is(err, core.ErrWrongMode) {
		t.Fatalf("ScanStep on a kv table: %v, want ErrWrongMode", err)
	}
	if v, ok, err := rcl.GetKV(0, []byte("k")); err != nil || !ok || string(v) != "v" {
		t.Fatalf("connection unusable after the refusals: %q %v %v", v, ok, err)
	}
}

// TestSyncRetryNeedsSoloAndRedialIsRateLimited: with a retry policy set, a
// synchronous op that fails while a pipe has requests in flight is NOT
// retried (the pipe's requests could not be replayed with it), and redial
// attempts against a dead server are spaced by the policy's backoff — the
// calls in between fail fast with the sticky error.
func TestSyncRetryNeedsSoloAndRedialIsRateLimited(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// The connection dies right after its handshake.
	fl := faultconn.WrapListener(ln, func(int) faultconn.Program {
		return faultconn.Program{DropAfterWrite: int64(HelloRespSize), Reset: true}
	})
	s := New(core.MustNew(core.Config{Bins: 1 << 10, MaxThreads: 64}), Options{})
	go s.Serve(fl)
	defer s.Close()

	const step = 50 * time.Millisecond // backoff sleeps at least step/2
	cl, err := DialV2(ln.Addr().String(), ClientOpts{
		Retry: RetryPolicy{Max: 3, BaseDelay: step, MaxDelay: step, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var errc int
	p, _ := cl.Pipe(core.PipeOpts{Window: 8, OnComplete: func(c core.Completion) {
		if c.Err != nil {
			errc++
		}
	}})
	if err := p.Get(1); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, _, err := cl.Get(2); err == nil {
		t.Fatal("Get on a dropped connection succeeded")
	}
	if d := time.Since(start); d >= step/2 {
		t.Fatalf("sync op with a pipe request in flight took %v: it was retried", d)
	}
	if errc != 1 {
		t.Fatalf("%d error completions, want the pipe's one request failed", errc)
	}

	s.Close() // nothing listens any more: every redial is refused
	start = time.Now()
	for i := 0; i < 100; i++ {
		if err := p.Get(uint64(i)); err == nil {
			t.Fatal("enqueue accepted with the server gone")
		}
	}
	if allowed := 1 + int(time.Since(start)/(step/2)); cl.redialFails > allowed {
		t.Fatalf("%d redials in %v, want at most one per backoff step", cl.redialFails, time.Since(start))
	}
}

// faultProgram draws one server-side connection program: healthy, or a
// response stream that stops after an arbitrary byte count — usually mid
// frame — with a clean close or a reset, or a request stream the server
// loses mid frame, or (blackhole) a server that stops reading altogether.
func faultProgram(r *rand.Rand, blackhole bool) faultconn.Program {
	writes := int64(HelloRespSize + 1 + r.Intn(40*RespSize))
	reads := int64(HelloFixedSize + 1 + r.Intn(40*ReqSize))
	switch r.Intn(5) {
	case 0:
		return faultconn.Program{DropAfterWrite: writes}
	case 1:
		return faultconn.Program{DropAfterWrite: writes, Reset: true}
	case 2:
		return faultconn.Program{DropAfterRead: reads}
	case 3:
		if blackhole {
			return faultconn.Program{BlackholeAfterRead: reads}
		}
	}
	return faultconn.Program{}
}

// TestClientExactlyOnceUnderFaults is the client's completion contract as a
// seeded property: a random mix of pipe enqueues, flushes and synchronous
// fixed and KV ops runs against a real server whose connections drop,
// truncate mid-frame or go silent — and, with a retry policy, heal on
// redial. Whatever happens, every request the pipe accepted gets exactly
// one completion, in enqueue order; nothing stays pending once the
// connection is marked broken; error completions are retryable; a
// synchronous op issued with the pipe open returns its own answer; and
// nothing fires after Close.
func TestClientExactlyOnceUnderFaults(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		for _, retry := range []bool{false, true} {
			exactlyOnceRun(t, seed, retry)
			if t.Failed() {
				t.Fatalf("seed %d, retry %v", seed, retry)
			}
		}
	}
}

func exactlyOnceRun(t *testing.T, seed int64, retry bool) {
	r := rand.New(rand.NewSource(seed))
	// Only the first connection may go silent: each blackhole costs a full
	// read timeout.
	progs := []faultconn.Program{faultProgram(r, true)}
	for len(progs) < 8 {
		progs = append(progs, faultProgram(r, false))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := faultconn.WrapListener(ln, func(i int) faultconn.Program {
		if i < len(progs) {
			return progs[i]
		}
		return faultconn.Program{}
	})
	s := New(core.MustNew(core.Config{Bins: 1 << 8, Resizable: true, MaxThreads: 64}), Options{})
	go s.Serve(fl)
	defer s.Close()

	opts := ClientOpts{ReadTimeout: 20 * time.Millisecond}
	if retry {
		opts.Retry = RetryPolicy{Max: 2, BaseDelay: 200 * time.Microsecond, MaxDelay: time.Millisecond, Seed: uint64(seed)}
	}
	cl, err := DialV2(ln.Addr().String(), opts)
	if err != nil {
		t.Fatal(err)
	}

	// Every value written carries its key in the high half, so an answer
	// matched to the wrong request shows.
	var stamp uint64
	value := func(k uint64) uint64 { stamp++; return k<<32 | stamp }
	owns := func(k, v uint64) bool { return v>>32 == k }
	transient := func(err error) bool { return err == nil || IsRetryable(err) }

	type req struct {
		kind core.OpKind
		key  uint64
	}
	var want []req // accepted by the pipe, in order
	var got []core.Completion
	closed := false
	p, err := cl.Pipe(core.PipeOpts{Window: 1 + r.Intn(24), OnComplete: func(c core.Completion) {
		if closed {
			t.Errorf("completion %+v fired after Close", c)
		}
		got = append(got, c)
	}})
	if err != nil {
		t.Fatal(err)
	}
	enqueue := func() {
		q := req{key: uint64(r.Intn(16))}
		var err error
		switch r.Intn(4) {
		case 0:
			q.kind, err = core.OpGet, p.Get(q.key)
		case 1:
			q.kind, err = core.OpPut, p.Put(q.key, value(q.key))
		case 2:
			q.kind, err = core.OpInsert, p.Insert(q.key, value(q.key))
		case 3:
			q.kind, err = core.OpDelete, p.Delete(q.key)
		}
		if err == nil {
			want = append(want, q)
		} else if !IsRetryable(err) {
			t.Errorf("enqueue refused with a non-retryable error: %v", err)
		}
	}
	for step := 0; step < 80 && !t.Failed(); step++ {
		switch n := r.Intn(12); {
		case n < 7:
			enqueue()
		case n == 7:
			if err := p.Flush(); !transient(err) {
				t.Errorf("Flush: non-retryable %v", err)
			}
			if len(got) != len(want) {
				t.Errorf("after Flush: %d completions for %d accepted requests", len(got), len(want))
			}
		case n == 8:
			k := uint64(r.Intn(16))
			v, ok, err := cl.Get(k)
			if !transient(err) || (err == nil && ok && !owns(k, v)) {
				t.Errorf("sync Get(%d) with the pipe open = (%#x,%v,%v)", k, v, ok, err)
			}
			if err == nil && len(got) != len(want) {
				t.Errorf("sync Get answered with %d pipe requests still incomplete", len(want)-len(got))
			}
		case n == 9:
			k := uint64(r.Intn(16))
			prev, ok, err := cl.Put(k, value(k))
			if !transient(err) || (err == nil && ok && !owns(k, prev)) {
				t.Errorf("sync Put(%d) with the pipe open = (%#x,%v,%v)", k, prev, ok, err)
			}
		case n == 10:
			// The KV response is a different frame shape; on this inlined
			// table the server answers it WRONG_MODE.
			val, ok, err := cl.GetKV(0, []byte{byte(r.Intn(16))})
			if val != nil || ok || !(errors.Is(err, core.ErrWrongMode) || IsRetryable(err)) {
				t.Errorf("sync GetKV with the pipe open = (%q,%v,%v)", val, ok, err)
			}
		default:
			time.Sleep(1500 * time.Microsecond) // past the redial backoff: let it heal
		}
		// Between calls only the pipe's requests are pending, and none once
		// the connection is marked broken.
		if pend := cl.head - cl.tail; pend != len(want)-len(got) || (cl.Err() != nil && pend != 0) {
			t.Errorf("step %d: %d pending, %d accepted, %d completed, broken=%v",
				step, pend, len(want), len(got), cl.Err())
		}
	}
	// Close with requests still in flight: they complete during Close,
	// nothing after it, and the pipe accepts no more.
	for i := 0; i < 3; i++ {
		enqueue()
	}
	cl.Close()
	closed = true
	if err := p.Get(1); err == nil {
		t.Error("enqueue accepted after Close")
	}
	p.Flush()
	if len(got) != len(want) {
		t.Fatalf("%d completions for %d accepted requests", len(got), len(want))
	}
	for i, c := range got {
		if c.Kind != want[i].kind || c.Key != want[i].key {
			t.Fatalf("completion %d is %v(%d), want %v(%d): out of order", i, c.Kind, c.Key, want[i].kind, want[i].key)
		}
		switch {
		case c.Err == nil:
			if c.OK && c.Kind != core.OpInsert && !owns(c.Key, c.Value) {
				t.Errorf("completion %d: %+v carries another key's value", i, c)
			}
		case errors.Is(c.Err, core.ErrExists):
			if !owns(c.Key, c.Value) {
				t.Errorf("completion %d: %+v carries another key's value", i, c)
			}
		case !IsRetryable(c.Err):
			t.Errorf("completion %d: non-retryable error %v", i, c.Err)
		}
	}
}

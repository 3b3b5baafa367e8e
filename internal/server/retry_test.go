package server

import (
	"errors"
	"io"
	"net"
	"os"
	"syscall"
	"testing"
	"time"

	"repro/internal/faultconn"

	core "repro/internal/core"
)

// TestIsRetryable pins the classification table: transport shapes and
// ErrBusy are retryable, table-level and protocol refusals are terminal.
func TestIsRetryable(t *testing.T) {
	retryable := []error{
		io.EOF, io.ErrUnexpectedEOF, os.ErrDeadlineExceeded, net.ErrClosed,
		syscall.ECONNRESET, syscall.ECONNREFUSED, syscall.EPIPE,
		&net.OpError{Op: "read", Err: syscall.ECONNRESET},
		ErrBusy,
	}
	for _, err := range retryable {
		if !IsRetryable(err) {
			t.Errorf("IsRetryable(%v) = false, want true", err)
		}
	}
	terminal := []error{
		nil, core.ErrExists, core.ErrFull, core.ErrWrongMode,
		core.ErrValueSize, core.ErrNamespace, core.ErrReservedKey,
		core.ErrShadow, ErrBadRequest, ErrUnknownTable, ErrBadVersion,
		ErrBadFrame, ErrFeature, errors.New("unclassified"),
	}
	for _, err := range terminal {
		if IsRetryable(err) {
			t.Errorf("IsRetryable(%v) = true, want false", err)
		}
	}
}

// TestBackoffCappedAndJittered: the schedule grows exponentially from
// BaseDelay, caps at MaxDelay, and every delay sits in [d/2, d].
func TestBackoffCappedAndJittered(t *testing.T) {
	p := RetryPolicy{BaseDelay: 2 * time.Millisecond, MaxDelay: 16 * time.Millisecond}.norm()
	rng := uint64(7)
	want := []time.Duration{2, 4, 8, 16, 16, 16} // ms, pre-jitter
	for i, w := range want {
		d := p.Backoff(i, &rng)
		hi := w * time.Millisecond
		if d < hi/2 || d > hi {
			t.Fatalf("attempt %d: backoff %v outside [%v, %v]", i, d, hi/2, hi)
		}
	}
	// Same seed, same schedule.
	r1, r2 := uint64(42), uint64(42)
	for i := 0; i < 10; i++ {
		if a, b := p.Backoff(i, &r1), p.Backoff(i, &r2); a != b {
			t.Fatalf("attempt %d: jitter not deterministic (%v vs %v)", i, a, b)
		}
	}
}

// startTestServer launches an in-process server and returns its address.
func startTestServer(t testing.TB) string {
	t.Helper()
	tbl := core.MustNew(core.Config{Bins: 1 << 10, Resizable: true, MaxThreads: 64})
	s := New(tbl, Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	t.Cleanup(func() { s.Close() })
	return ln.Addr().String()
}

// TestClientPipeFailsAllPendingOnBlackhole is the regression test for the
// completions-hang-forever bug: a peer that stops responding mid-window
// (faultconn blackhole) must NOT leave pending completions undelivered —
// every in-flight request gets the transport error, within the read
// deadline, and the failing call returns it.
func TestClientPipeFailsAllPendingOnBlackhole(t *testing.T) {
	addr := startTestServer(t)
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	// Let the handshake response through, then swallow every response
	// byte: requests still reach the server, acks never come back.
	fc := faultconn.Wrap(raw, faultconn.Program{BlackholeAfterRead: HelloRespSize})
	cl, err := NewClientV2(fc, ClientOpts{ReadTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var completions []core.Completion
	p, err := cl.Pipe(core.PipeOpts{Window: 4, OnComplete: func(c core.Completion) {
		completions = append(completions, c)
	}})
	if err != nil {
		t.Fatal(err)
	}

	enqueued := 0
	var failErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 64; i++ {
			if err := p.Put(uint64(i), uint64(i)); err != nil {
				failErr = err
				return
			}
			enqueued++
		}
		if err := p.Flush(); err != nil {
			failErr = err
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("pipe hung: completions never failed") // the old bug
	}

	if failErr == nil {
		t.Fatal("blackholed pipe reported success")
	}
	if !IsRetryable(failErr) {
		t.Fatalf("blackhole error %v not classified retryable", failErr)
	}
	// Every successfully enqueued request got exactly one completion, all
	// carrying the transport error, in enqueue order.
	if len(completions) != enqueued {
		t.Fatalf("%d completions for %d enqueued requests", len(completions), enqueued)
	}
	for i, c := range completions {
		if c.Err == nil {
			t.Fatalf("completion %d has nil Err", i)
		}
		if c.Key != uint64(i) {
			t.Fatalf("completion %d out of order: key %d", i, c.Key)
		}
	}
}

// TestClientPipeFailsPendingOnConnDrop: same contract when the conn dies
// outright (RST) rather than hanging — some completions succeed, the rest
// fail with the reset, none are lost.
func TestClientPipeFailsPendingOnConnDrop(t *testing.T) {
	addr := startTestServer(t)
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	// Deliver the handshake plus exactly 3 responses, then reset.
	fc := faultconn.Wrap(raw, faultconn.Program{
		DropAfterRead: int64(HelloRespSize + 3*RespSize),
		Reset:         true,
	})
	cl, err := NewClientV2(fc, ClientOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	okc, errc := 0, 0
	p, err := cl.Pipe(core.PipeOpts{Window: 4, OnComplete: func(c core.Completion) {
		if c.Err != nil {
			errc++
		} else {
			okc++
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	enqueued := 0
	var lastErr error
	for i := 0; i < 32; i++ {
		if err := p.Put(uint64(i), 1); err != nil {
			lastErr = err
			break
		}
		enqueued++
	}
	if lastErr == nil {
		lastErr = p.Flush()
	}
	if lastErr == nil {
		t.Fatal("dropped conn reported success")
	}
	if okc != 3 {
		t.Fatalf("%d successful completions, want 3 (the responses delivered before the drop)", okc)
	}
	if okc+errc != enqueued {
		t.Fatalf("completions %d+%d != enqueued %d", okc, errc, enqueued)
	}
	if !errors.Is(lastErr, syscall.ECONNRESET) && !IsRetryable(lastErr) {
		t.Fatalf("drop error %v not transport-shaped", lastErr)
	}
}

// TestSyncRetryRedialsThroughServerSideDrop: the server side kills the
// first connection after one response; a retry-enabled client's next Get
// transparently redials and succeeds.
func TestSyncRetryRedialsThroughServerSideDrop(t *testing.T) {
	tbl := core.MustNew(core.Config{Bins: 1 << 10, Resizable: true, MaxThreads: 64})
	s := New(tbl, Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// First accepted conn dies after writing the handshake response plus
	// one fixed response; later conns are clean.
	fl := faultconn.WrapListener(ln, func(i int) faultconn.Program {
		if i == 0 {
			return faultconn.Program{DropAfterWrite: int64(HelloRespSize + RespSize), Reset: true}
		}
		return faultconn.Program{}
	})
	go s.Serve(fl)
	defer s.Close()

	cl, err := DialV2(ln.Addr().String(), ClientOpts{
		Retry: RetryPolicy{Max: 4, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if _, _, err := cl.Insert(7, 70); err != nil {
		t.Fatalf("first op (served before the drop): %v", err)
	}
	// The server-side write of this op's response fails, killing conn 0;
	// the client must redial and retry — an Insert retry hits ErrExists
	// semantics (already applied), reported as inserted=false, which is
	// the documented at-least-once shape, OR it sees a clean miss if the
	// first apply never landed. A Get afterwards must succeed either way.
	cl.Insert(8, 80)
	if v, ok, err := cl.Get(7); err != nil || !ok || v != 70 {
		t.Fatalf("Get(7) after failover = (%d,%v,%v), want (70,true,nil)", v, ok, err)
	}
	if cl.Err() != nil {
		t.Fatalf("client still broken after successful redial: %v", cl.Err())
	}
}

// TestNoRetryWithoutPolicy: the zero policy preserves the old semantics —
// the transport error surfaces and the client stays broken.
func TestNoRetryWithoutPolicy(t *testing.T) {
	tbl := core.MustNew(core.Config{Bins: 1 << 10, MaxThreads: 64})
	s := New(tbl, Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := faultconn.WrapListener(ln, func(i int) faultconn.Program {
		return faultconn.Program{DropAfterWrite: int64(HelloRespSize), Reset: true}
	})
	go s.Serve(fl)
	defer s.Close()

	cl, err := DialV2(ln.Addr().String(), ClientOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, _, err := cl.Get(1); err == nil {
		t.Fatal("Get on dropped conn succeeded without retry policy")
	}
	if cl.Err() == nil {
		t.Fatal("client not marked broken")
	}
	if _, _, err := cl.Get(2); err == nil {
		t.Fatal("second Get healed without a retry policy")
	}
}

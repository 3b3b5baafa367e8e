package resp_test

import (
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	core "repro/internal/core"
	"repro/internal/expiry"
	"repro/internal/resp"
	"repro/internal/wal"
)

func kvConfig() core.Config {
	return core.Config{
		Bins: 1 << 10, Resizable: true, Mode: core.Allocator,
		VariableKV: true, Namespaces: true, EpochGC: true,
		MaxThreads: 64,
	}
}

// respServer runs a resp.Serve loop per accepted connection over a real
// listener, the way the network server does: one handle per connection,
// one shared expiry index.
type respServer struct {
	ln  net.Listener
	tbl *core.Table
	ix  *expiry.Index
	log resp.WAL
	wg  sync.WaitGroup
}

func startRESP(t *testing.T, tbl *core.Table, ix *expiry.Index, log resp.WAL) *respServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	s := &respServer{ln: ln, tbl: tbl, ix: ix, log: log}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				defer c.Close()
				h := tbl.MustHandle()
				defer h.Close()
				resp.Serve(c, resp.ServeOpts{Table: tbl, Handle: h, Expiry: ix, Log: log})
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		s.wg.Wait()
	})
	return s
}

func (s *respServer) dial(t *testing.T) *resp.Client {
	t.Helper()
	cl, err := resp.Dial(s.ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func mustDo(t *testing.T, cl *resp.Client, args ...string) resp.Reply {
	t.Helper()
	r, err := cl.Do(args...)
	if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	return r
}

func wantText(t *testing.T, cl *resp.Client, want string, args ...string) {
	t.Helper()
	r := mustDo(t, cl, args...)
	if r.IsErr() {
		t.Fatalf("%v: unexpected error %q", args, r.Str)
	}
	if got := r.Text(); got != want {
		t.Fatalf("%v = %q, want %q", args, got, want)
	}
}

func wantNull(t *testing.T, cl *resp.Client, args ...string) {
	t.Helper()
	r := mustDo(t, cl, args...)
	if !r.Null {
		t.Fatalf("%v = %+v, want null", args, r)
	}
}

func wantErrContains(t *testing.T, cl *resp.Client, sub string, args ...string) {
	t.Helper()
	r := mustDo(t, cl, args...)
	if !r.IsErr() || !strings.Contains(r.Str, sub) {
		t.Fatalf("%v = %+v, want error containing %q", args, r, sub)
	}
}

func TestCommandMatrix(t *testing.T) {
	tbl := core.MustNew(kvConfig())
	s := startRESP(t, tbl, expiry.New(nil), nil)
	cl := s.dial(t)

	wantText(t, cl, "PONG", "PING")
	wantText(t, cl, "hey", "PING", "hey")
	wantText(t, cl, "echoed", "ECHO", "echoed")

	// SET/GET basics, case-insensitive commands.
	wantText(t, cl, "OK", "set", "k1", "v1")
	wantText(t, cl, "v1", "GET", "k1")
	wantNull(t, cl, "GET", "missing")
	wantText(t, cl, "OK", "SET", "k1", "v2")
	wantText(t, cl, "v2", "GET", "k1")

	// SETNX. (SET's NX, XX, KEEPTTL and the TTL semantics are pinned by
	// wal.TestKVConformance, against every front of the state machine.)
	wantText(t, cl, "1", "SETNX", "fresh", "x")
	wantText(t, cl, "0", "SETNX", "fresh", "y")
	wantText(t, cl, "x", "GET", "fresh")

	// DEL / EXISTS.
	wantText(t, cl, "1", "EXISTS", "k1")
	wantText(t, cl, "2", "EXISTS", "k1", "missing", "fresh")
	wantText(t, cl, "2", "DEL", "k1", "fresh", "missing")
	wantText(t, cl, "0", "EXISTS", "k1")

	// MSET / MGET.
	wantText(t, cl, "OK", "MSET", "a", "1", "b", "2", "c", "3")
	r := mustDo(t, cl, "MGET", "a", "missing", "c")
	if len(r.Array) != 3 {
		t.Fatalf("MGET array len %d", len(r.Array))
	}
	if r.Array[0].Text() != "1" || !r.Array[1].Null || r.Array[2].Text() != "3" {
		t.Fatalf("MGET = %+v", r.Array)
	}

	// INCR family.
	wantText(t, cl, "1", "INCR", "ctr")
	wantText(t, cl, "11", "INCRBY", "ctr", "10")
	wantText(t, cl, "10", "DECR", "ctr")
	wantText(t, cl, "7", "DECRBY", "ctr", "3")
	wantText(t, cl, "7", "GET", "ctr")
	wantText(t, cl, "OK", "SET", "notnum", "abc")
	wantErrContains(t, cl, "not an integer", "INCR", "notnum")
	wantErrContains(t, cl, "not an integer", "INCRBY", "ctr", "abc")
	wantText(t, cl, "OK", "SET", "big", strconv.FormatInt(1<<63-1, 10))
	wantErrContains(t, cl, "overflow", "INCR", "big")

	// TTL answers in seconds, PTTL in milliseconds.
	wantText(t, cl, "-1", "TTL", "ctr")
	wantText(t, cl, "-2", "TTL", "missing")
	wantText(t, cl, "1", "EXPIRE", "ctr", "100")
	rr := mustDo(t, cl, "TTL", "ctr")
	if rr.Int <= 0 || rr.Int > 100 {
		t.Fatalf("TTL = %d, want (0,100]", rr.Int)
	}
	rr = mustDo(t, cl, "PTTL", "ctr")
	if rr.Int <= 0 || rr.Int > 100_000 {
		t.Fatalf("PTTL = %d", rr.Int)
	}
	wantText(t, cl, "1", "PERSIST", "ctr")

	// SELECT maps onto namespaces.
	wantText(t, cl, "OK", "SET", "nskey", "zero")
	wantText(t, cl, "OK", "SELECT", "1")
	wantNull(t, cl, "GET", "nskey")
	wantText(t, cl, "OK", "SET", "nskey", "one")
	wantText(t, cl, "one", "GET", "nskey")
	wantText(t, cl, "OK", "SELECT", "0")
	wantText(t, cl, "zero", "GET", "nskey")
	wantErrContains(t, cl, "out of range", "SELECT", "4096")
	wantErrContains(t, cl, "out of range", "SELECT", "-1")

	// Stubs.
	if r := mustDo(t, cl, "COMMAND", "DOCS"); len(r.Array) != 0 {
		t.Fatalf("COMMAND = %+v", r)
	}
	if r := mustDo(t, cl, "CONFIG", "GET", "save"); len(r.Array) != 0 {
		t.Fatalf("CONFIG GET = %+v", r)
	}
	wantText(t, cl, "OK", "CONFIG", "SET", "appendonly", "no")
	if r := mustDo(t, cl, "INFO"); !strings.Contains(string(r.Bulk), "redis_version") {
		t.Fatalf("INFO = %q", r.Bulk)
	}
	if r := mustDo(t, cl, "DBSIZE"); r.Int <= 0 {
		t.Fatalf("DBSIZE = %d", r.Int)
	}

	// Errors.
	wantErrContains(t, cl, "unknown command", "NOSUCH")
	wantErrContains(t, cl, "wrong number of arguments", "GET")
	wantErrContains(t, cl, "wrong number of arguments", "SET", "k")
	wantErrContains(t, cl, "syntax error", "SET", "k", "v", "BOGUS")
	wantErrContains(t, cl, "syntax error", "SET", "k", "v", "NX", "XX")
}

// TestTTLExpiresLive: a key SET with PX reads as a miss after its
// deadline — lazily on the read path, no sweeper involved.
func TestTTLExpiresLive(t *testing.T) {
	tbl := core.MustNew(kvConfig())
	var now atomic.Int64
	now.Store(1000)
	s := startRESP(t, tbl, expiry.New(now.Load), nil)
	cl := s.dial(t)

	wantText(t, cl, "OK", "SET", "k", "v", "PX", "40")
	wantText(t, cl, "v", "GET", "k")
	wantText(t, cl, "1", "EXISTS", "k")
	now.Add(40)
	wantNull(t, cl, "GET", "k")
	wantText(t, cl, "-2", "TTL", "k")
	wantText(t, cl, "0", "EXISTS", "k")
	// And the slot is genuinely free again.
	wantText(t, cl, "OK", "SET", "k", "v2")
	wantText(t, cl, "v2", "GET", "k")
	wantText(t, cl, "-1", "TTL", "k")
}

// TestPipelinedGetOfExpiredKey: the deadline travels with the value, so a
// GET streamed through the lookup pipeline answers nil for a pair past it
// without a lookup of its own — and the delete it owes runs at the next
// barrier, which DBSIZE in the same batch is: by the time the batch's
// replies leave, the pair is gone from the table, not just from view.
func TestPipelinedGetOfExpiredKey(t *testing.T) {
	tbl := core.MustNew(kvConfig())
	var now atomic.Int64
	now.Store(1000)
	s := startRESP(t, tbl, expiry.New(now.Load), nil)
	cl := s.dial(t)
	wantText(t, cl, "OK", "SET", "dies", "v", "PX", "40")
	wantText(t, cl, "OK", "SET", "stays", "w")
	wantText(t, cl, "OK", "SET", "later", "x", "PX", "4000")
	wantText(t, cl, "3", "DBSIZE")
	now.Add(40)

	for _, cmd := range [][]string{{"GET", "stays"}, {"GET", "dies"}, {"GET", "later"}, {"DBSIZE"}, {"GET", "dies"}} {
		if err := cl.SendStr(cmd...); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"w", "<nil>", "x", "2", "<nil>"} {
		r, err := cl.Recv()
		if err != nil {
			t.Fatal(err)
		}
		got := r.Text()
		if r.Null {
			got = "<nil>"
		}
		if got != want {
			t.Fatalf("reply %d = %q, want %q", i, got, want)
		}
	}
	wantText(t, cl, "3960", "PTTL", "later")
	wantText(t, cl, "-2", "PTTL", "dies")
}

// TestClientPipelineZeroAllocs: a warmed pipelined GET/SET stream
// allocates nothing — not in the Client (commands staged in one owned
// buffer, bulk replies decoded into another, +OK a constant), and not in
// the connection serving it in this process, on the served table shape
// (EpochGC on: a replace retires the old block as a word, not a closure).
func TestClientPipelineZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates in the command reader")
	}
	s := startRESP(t, core.MustNew(kvConfig()), expiry.New(nil), nil)
	cl := s.dial(t)
	const keys = 32
	var ks, vs [keys][]byte
	for i := range ks {
		ks[i] = []byte("zero-alloc-key-" + strconv.Itoa(i))
		vs[i] = []byte(strings.Repeat(strconv.Itoa(i%10), 64))
	}
	set, get, ex, ttl := []byte("SET"), []byte("GET"), []byte("EX"), []byte("3600")
	burst := func() {
		for i := range ks {
			var err error
			if i%2 == 0 {
				err = cl.Send(set, ks[i], vs[i], ex, ttl)
			} else {
				err = cl.Send(set, ks[i], vs[i])
			}
			if err == nil {
				err = cl.Send(get, ks[i])
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := cl.Flush(); err != nil {
			t.Fatal(err)
		}
		for i := range ks {
			if r, err := cl.Recv(); err != nil || r.Str != "OK" {
				t.Fatalf("SET %d = %+v, %v", i, r, err)
			}
			if r, err := cl.Recv(); err != nil || string(r.Bulk) != string(vs[i]) {
				t.Fatalf("GET %d = %+v, %v", i, r, err)
			}
		}
	}
	for i := 0; i < 64; i++ { // first inserts take arena blocks, replaces recycle them; the epoch buckets reach their size
		burst()
	}
	if n := testing.AllocsPerRun(50, burst); n != 0 {
		t.Fatalf("%v allocations per burst of %d pipelined ops", n, 2*keys)
	}
}

// TestSweeperReclaims: with a running sweeper, expired keys disappear
// from the table without any client touching them.
func TestSweeperReclaims(t *testing.T) {
	tbl := core.MustNew(kvConfig())
	ix := expiry.New(nil)
	h := tbl.MustHandle()
	sw := expiry.Bind(h, ix, nil).StartSweeper(10 * time.Millisecond)
	defer func() {
		sw.Stop()
		h.Close()
	}()
	s := startRESP(t, tbl, ix, nil)
	cl := s.dial(t)
	for i := 0; i < 50; i++ {
		wantText(t, cl, "OK", "SET", "sweep-"+strconv.Itoa(i), "v", "PX", "30")
	}
	mh := tbl.MustHandle()
	defer mh.Close()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if mh.Len() == 0 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("sweeper left %d expired pairs behind", mh.Len())
}

// TestPipelinedBurst: many commands written before any reply is read come
// back in order, the GET replies streamed through the pipeline.
func TestPipelinedBurst(t *testing.T) {
	tbl := core.MustNew(kvConfig())
	s := startRESP(t, tbl, expiry.New(nil), nil)
	cl := s.dial(t)

	const n = 500
	for i := 0; i < n; i++ {
		if err := cl.SendStr("SET", "key-"+strconv.Itoa(i), "val-"+strconv.Itoa(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if err := cl.SendStr("GET", "key-"+strconv.Itoa(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		r, err := cl.Recv()
		if err != nil || r.Kind != '+' {
			t.Fatalf("SET %d: %+v %v", i, r, err)
		}
	}
	for i := 0; i < n; i++ {
		r, err := cl.Recv()
		if err != nil {
			t.Fatalf("GET %d: %v", i, err)
		}
		if want := "val-" + strconv.Itoa(i); string(r.Bulk) != want {
			t.Fatalf("GET %d = %q, want %q", i, r.Bulk, want)
		}
	}
}

// TestLargeValue: a bulk bigger than the write-buffer flush threshold
// round-trips, and one over the allocator's block bound is refused with
// a clean error instead of a dropped connection.
func TestLargeValue(t *testing.T) {
	tbl := core.MustNew(kvConfig())
	s := startRESP(t, tbl, expiry.New(nil), nil)
	cl := s.dial(t)
	big := strings.Repeat("z", 60_000)
	wantText(t, cl, "OK", "SET", "big", big)
	r := mustDo(t, cl, "GET", "big")
	if string(r.Bulk) != big {
		t.Fatalf("large value corrupted: got %d bytes", len(r.Bulk))
	}
	// Over the default arena's 64 KiB block bound: an error, then the
	// connection keeps working.
	huge := strings.Repeat("z", 80_000)
	if rr := mustDo(t, cl, "SET", "toobig", huge); !rr.IsErr() {
		t.Fatalf("oversized SET = %+v, want error", rr)
	}
	wantText(t, cl, "PONG", "PING")
}

// TestInlineAndProtocolError: inline commands work; garbage closes the
// connection after one -ERR line.
func TestInlineAndProtocolError(t *testing.T) {
	tbl := core.MustNew(kvConfig())
	s := startRESP(t, tbl, expiry.New(nil), nil)

	c, err := net.Dial("tcp", s.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("PING\r\nSET ik iv\r\nGET ik\r\n*zz\r\n")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	var got []byte
	for {
		n, err := c.Read(buf)
		got = append(got, buf[:n]...)
		if err != nil {
			break
		}
	}
	s1 := string(got)
	for _, want := range []string{"+PONG\r\n", "+OK\r\n", "$2\r\niv\r\n", "-ERR Protocol error"} {
		if !strings.Contains(s1, want) {
			t.Fatalf("response %q missing %q", s1, want)
		}
	}
}

// TestQuit: QUIT answers +OK and the server closes the connection.
func TestQuit(t *testing.T) {
	tbl := core.MustNew(kvConfig())
	s := startRESP(t, tbl, expiry.New(nil), nil)
	cl := s.dial(t)
	wantText(t, cl, "OK", "QUIT")
	if _, err := cl.Do("PING"); err == nil {
		t.Fatal("connection survived QUIT")
	}
}

// TestDurableTTLAcrossRestart is the drop-in acceptance path: SETs with
// TTLs against a WAL-backed table survive (or die) correctly across a
// restart — an expired key stays dead after replay, an unexpired one
// keeps its deadline, and INCR preserves a TTL through the log.
func TestDurableTTLAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := kvConfig()
	ds, err := wal.Open(dir, cfg, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := startRESP(t, ds.Table(), ds.Expiry(), ds.Log())
	cl := s.dial(t)

	wantText(t, cl, "OK", "SET", "dies", "v", "PX", "50")
	wantText(t, cl, "OK", "SET", "lives", "v", "EX", "100")
	wantText(t, cl, "OK", "SET", "plain", "v")
	wantText(t, cl, "1", "INCR", "ttlctr")
	wantText(t, cl, "1", "EXPIRE", "ttlctr", "100")
	wantText(t, cl, "2", "INCR", "ttlctr") // must re-log the deadline
	wantText(t, cl, "OK", "SET", "cleared", "v", "EX", "100")
	wantText(t, cl, "OK", "SET", "cleared", "v2") // plain SET clears TTL
	cl.Close()
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	time.Sleep(80 * time.Millisecond) // let "dies" pass its deadline

	r, err := wal.Open(dir, cfg, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, ok := r.GetKV(0, []byte("dies")); ok {
		t.Fatal("expired key came back from the WAL")
	}
	if v, ok := r.GetKV(0, []byte("lives")); !ok || string(v) != "v" {
		t.Fatalf("lives = %q,%v", v, ok)
	}
	if ttl, has, exists := r.TTL(0, []byte("lives")); !exists || !has || ttl <= 0 {
		t.Fatalf("lives lost its TTL: %v %v %v", ttl, has, exists)
	}
	if v, ok := r.GetKV(0, []byte("ttlctr")); !ok || string(v) != "2" {
		t.Fatalf("ttlctr = %q,%v; want 2", v, ok)
	}
	if _, has, exists := r.TTL(0, []byte("ttlctr")); !exists || !has {
		t.Fatal("INCR dropped the TTL across replay")
	}
	if v, ok := r.GetKV(0, []byte("plain")); !ok || string(v) != "v" {
		t.Fatalf("plain = %q,%v", v, ok)
	}
	if ttl, has, exists := r.TTL(0, []byte("cleared")); !exists || has {
		t.Fatalf("cleared kept a TTL across replay: %v %v %v", ttl, has, exists)
	}
	if v, _ := r.GetKV(0, []byte("cleared")); string(v) != "v2" {
		t.Fatalf("cleared = %q, want v2 (upsert replay)", v)
	}
}

// TestSetNeverHidesKeyFromGet: a SET of a present key replaces the pair in
// one step, so a GET on another connection, racing it, returns the old
// value or the new one — never nil. One connection pipelines SETs of two
// keys (one of at most 8 bytes, one longer) with changing values while
// another pipelines GETs of them.
func TestSetNeverHidesKeyFromGet(t *testing.T) {
	s := startRESP(t, core.MustNew(kvConfig()), expiry.New(nil), nil)
	keys := []string{"k", "a-key-longer-than-8-bytes"}
	setter, getter := s.dial(t), s.dial(t)
	for _, k := range keys {
		wantText(t, setter, "OK", "SET", k, "v-0")
	}
	const rounds, depth = 200, 32
	var written atomic.Int64 // highest value index whose SET was sent
	var done atomic.Bool
	errs := make(chan error, 2)
	go func() {
		defer done.Store(true)
		for r := 0; r < rounds; r++ {
			for i := 0; i < depth; i++ {
				n := int64(r*depth + i + 1)
				written.Store(n)
				for _, k := range keys {
					if err := setter.SendStr("SET", k, "v-"+strconv.FormatInt(n, 10)); err != nil {
						errs <- err
						return
					}
				}
			}
			if err := setter.Flush(); err != nil {
				errs <- err
				return
			}
			for i := 0; i < depth*len(keys); i++ {
				if r, err := setter.Recv(); err != nil || r.Str != "OK" {
					errs <- fmt.Errorf("SET = %+v, %v", r, err)
					return
				}
			}
		}
		errs <- nil
	}()
	go func() {
		gets, nils := 0, 0
		for !done.Load() {
			for i := 0; i < depth; i++ {
				if err := getter.SendStr("GET", keys[i%len(keys)]); err != nil {
					errs <- err
					return
				}
			}
			if err := getter.Flush(); err != nil {
				errs <- err
				return
			}
			for i := 0; i < depth; i++ {
				r, err := getter.Recv()
				if err != nil {
					errs <- err
					return
				}
				gets++
				if r.Null {
					nils++
					continue
				}
				hi := written.Load()
				n, perr := strconv.ParseInt(strings.TrimPrefix(string(r.Bulk), "v-"), 10, 64)
				if !strings.HasPrefix(string(r.Bulk), "v-") || perr != nil || n < 0 || n > hi {
					errs <- fmt.Errorf("GET %s = %q, not a value any SET wrote", keys[i%len(keys)], r.Bulk)
					return
				}
			}
		}
		if nils != 0 {
			errs <- fmt.Errorf("%d of %d GETs racing a SET of a present key returned nil", nils, gets)
			return
		}
		errs <- nil
	}()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

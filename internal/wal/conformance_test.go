package wal

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	core "repro/internal/core"
	"repro/internal/expiry"
	"repro/internal/resp"
)

// One script, three entry points. The TTL'd-KV semantics live in
// expiry.KV; this test drives them through everything that fronts it — a
// RESP connection on a RAM table, a RESP connection on a durable table,
// and the wal.Store API — and asserts that every step answers the same,
// that the two durable fronts append the same redo records (kinds, keys,
// deadlines, order and bytes, pinned from the behaviour before the three
// copies were merged), and that the state survives crash→reopen and
// close→reopen unchanged. The clock is injected; nothing sleeps.

// t0 is the fake clock's start, far from zero so a deadline is never
// mistaken for "none".
const t0 = 1_000_000

// step is one line of the script. want is the reply in RESP's words ("nil"
// for a null). log is what the step appends to the redo log: total bytes,
// then the records, deadlines relative to t0.
type step struct {
	op   string // set get del incr pexpire persist pttl | advance sweep len
	key  string
	val  string
	n    int64  // set: PX milliseconds (0 = none); pexpire, advance: milliseconds
	flag string // set: NX, XX or KEEPTTL
	want string
	log  string
}

var kvScript = []step{
	// Plain SET and overwrite.
	{op: "set", key: "a", val: "1", want: "OK", log: "17B: ins a=1"},
	{op: "get", key: "a", want: "1"},
	{op: "pttl", key: "a", want: "-1"},
	{op: "get", key: "nokey", want: "nil"},
	{op: "pttl", key: "nokey", want: "-2"},

	// SET with a TTL; a plain overwrite clears it.
	{op: "set", key: "b", val: "1", n: 5000, want: "OK", log: "37B: ins b=1, exp b@+5000"},
	{op: "pttl", key: "b", want: "5000"},
	{op: "set", key: "b", val: "2", want: "OK", log: "17B: ins b=2"},
	{op: "pttl", key: "b", want: "-1"},
	{op: "get", key: "b", want: "2"},

	// KEEPTTL keeps it, and says so in the log: the insert record clears
	// the deadline on replay, so the deadline is logged again.
	{op: "set", key: "c", val: "1", n: 5000, want: "OK", log: "37B: ins c=1, exp c@+5000"},
	{op: "advance", n: 1000},
	{op: "set", key: "c", val: "2", flag: "KEEPTTL", want: "OK", log: "37B: ins c=2, exp c@+5000"},
	{op: "pttl", key: "c", want: "4000"},
	{op: "get", key: "c", want: "2"},
	{op: "set", key: "a", val: "1", flag: "KEEPTTL", want: "OK", log: "17B: ins a=1"},
	{op: "pttl", key: "a", want: "-1"},

	// NX and XX.
	{op: "set", key: "a", val: "x", flag: "NX", want: "nil"},
	{op: "get", key: "a", want: "1"},
	{op: "set", key: "n", val: "1", flag: "NX", want: "OK", log: "17B: ins n=1"},
	{op: "set", key: "m", val: "1", flag: "XX", want: "nil"},
	{op: "get", key: "m", want: "nil"},
	{op: "set", key: "a", val: "2", flag: "XX", want: "OK", log: "17B: ins a=2"},

	// INCR keeps the TTL, in memory and in the log.
	{op: "set", key: "i", val: "10", n: 8000, want: "OK", log: "38B: ins i=10, exp i@+9000"},
	{op: "incr", key: "i", want: "11", log: "38B: ins i=11, exp i@+9000"},
	{op: "pttl", key: "i", want: "8000"},
	{op: "incr", key: "fresh", want: "1", log: "21B: ins fresh=1"},
	{op: "pttl", key: "fresh", want: "-1"},

	// EXPIRE sets a deadline; EXPIRE at or before now is a logged delete.
	{op: "set", key: "p", val: "1", want: "OK", log: "17B: ins p=1"},
	{op: "pexpire", key: "p", n: 700, want: "1", log: "20B: exp p@+1700"},
	{op: "pttl", key: "p", want: "700"},
	{op: "pexpire", key: "p", n: 0, want: "1", log: "12B: del p"},
	{op: "get", key: "p", want: "nil"},
	{op: "pexpire", key: "fresh", n: -5, want: "1", log: "16B: del fresh"},
	{op: "pttl", key: "fresh", want: "-2"},
	{op: "pexpire", key: "nokey", n: 100, want: "0"},

	// PERSIST.
	{op: "set", key: "q", val: "1", n: 3000, want: "OK", log: "37B: ins q=1, exp q@+4000"},
	{op: "persist", key: "q", want: "1", log: "20B: exp q@none"},
	{op: "persist", key: "q", want: "0"},
	{op: "pttl", key: "q", want: "-1"},

	// DEL.
	{op: "del", key: "n", want: "1", log: "12B: del n"},
	{op: "del", key: "n", want: "0"},

	// Lazy expiry on read: the pair is deleted by the read that finds it
	// dead, and nothing is logged.
	{op: "set", key: "l", val: "1", n: 1000, want: "OK", log: "37B: ins l=1, exp l@+2000"},
	{op: "set", key: "s", val: "1", n: 1000, want: "OK", log: "37B: ins s=1, exp s@+2000"},
	{op: "set", key: "e", val: "1", n: 1000, want: "OK", log: "37B: ins e=1, exp e@+2000"},
	{op: "set", key: "r", val: "1", n: 1000, want: "OK", log: "37B: ins r=1, exp r@+2000"},
	{op: "advance", n: 999},
	{op: "get", key: "l", want: "1"},
	{op: "advance", n: 1},
	{op: "len", want: "9"},
	{op: "get", key: "l", want: "nil"},
	{op: "len", want: "8"},
	{op: "pttl", key: "l", want: "-2"},

	// An expired key is absent to every command that meets it first.
	{op: "pexpire", key: "e", n: 100, want: "0"},
	{op: "del", key: "e", want: "0"},
	{op: "set", key: "r", val: "2", flag: "NX", want: "OK", log: "17B: ins r=2"},
	{op: "pttl", key: "r", want: "-1"},

	// The sweep reclaims a dead key no command touches.
	{op: "len", want: "7"},
	{op: "sweep"},
	{op: "len", want: "6"},
	{op: "get", key: "s", want: "nil"},

	// Leave one key dead but unreclaimed (c, at +5000) and one alive with
	// a deadline (i, at +9000) for the restarts to find.
	{op: "advance", n: 3000},
}

// front is one entry point onto the state machine.
type front interface {
	// do runs a command step and returns its reply in RESP's words.
	do(t *testing.T, st step) string
	// backing returns what the clock-, sweep- and log-steps act on; store
	// is nil for a RAM table.
	backing() (tbl *core.Table, ix *expiry.Index, store *Store)
	// restart takes the store down, by crash or by Close, and brings the
	// front back on the reopened directory.
	restart(t *testing.T, crash bool)
	stop(t *testing.T)
}

// ---------------------------------------------------------------------------
// RESP front: a connection served by resp.Serve over net.Pipe
// ---------------------------------------------------------------------------

type respFront struct {
	dir   string // "" = RAM table
	now   *atomic.Int64
	tbl   *core.Table
	ix    *expiry.Index
	store *Store
	h     *core.Handle
	cl    *resp.Client
	done  chan struct{}
}

func newRESPFront(t *testing.T, dir string, now *atomic.Int64) *respFront {
	f := &respFront{dir: dir, now: now}
	f.start(t)
	return f
}

func (f *respFront) start(t *testing.T) {
	t.Helper()
	var log resp.WAL
	if f.dir == "" {
		if f.tbl == nil {
			f.tbl = core.MustNew(kvTestConfig())
			f.ix = expiry.New(f.now.Load)
		}
	} else {
		f.store = openKV(t, f.dir, f.now)
		f.tbl, f.ix, log = f.store.Table(), f.store.Expiry(), f.store.Log()
	}
	f.h = f.tbl.MustHandle()
	srv, cli := net.Pipe()
	f.cl = resp.NewClient(cli)
	f.done = make(chan struct{})
	go func() {
		defer close(f.done)
		defer srv.Close()
		resp.Serve(srv, resp.ServeOpts{Table: f.tbl, Handle: f.h, Expiry: f.ix, Log: log})
	}()
}

func (f *respFront) hangup() {
	f.cl.Close()
	<-f.done
	f.h.Close()
}

func (f *respFront) do(t *testing.T, st step) string {
	t.Helper()
	args := []string{strings.ToUpper(st.op), st.key}
	switch st.op {
	case "set":
		args = append(args, st.val)
		if st.n > 0 {
			args = append(args, "PX", strconv.FormatInt(st.n, 10))
		}
		if st.flag != "" {
			args = append(args, st.flag)
		}
	case "pexpire":
		args = append(args, strconv.FormatInt(st.n, 10))
	}
	r, err := f.cl.Do(args...)
	if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	if r.Null {
		return "nil"
	}
	return r.Text()
}

func (f *respFront) backing() (*core.Table, *expiry.Index, *Store) { return f.tbl, f.ix, f.store }

func (f *respFront) restart(t *testing.T, crash bool) {
	t.Helper()
	f.hangup()
	takeDown(t, f.store, crash)
	f.start(t)
}

func (f *respFront) stop(t *testing.T) {
	t.Helper()
	f.hangup()
	if f.store != nil {
		takeDown(t, f.store, false)
	}
}

func takeDown(t *testing.T, s *Store, crash bool) {
	t.Helper()
	if crash {
		s.crash()
	} else if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// ---------------------------------------------------------------------------
// Store front: the synchronous wal.Store surface. It has no NX, XX,
// KEEPTTL or INCR; the front composes them from TTL, GetKV and PutTTL the
// way a caller of that surface would.
// ---------------------------------------------------------------------------

type storeFront struct {
	dir string
	now *atomic.Int64
	s   *Store
}

func (f *storeFront) put(t *testing.T, key, val string, ttl time.Duration) {
	t.Helper()
	var err error
	if ttl > 0 {
		err = f.s.PutTTL(0, []byte(key), []byte(val), ttl)
	} else {
		err = f.s.PutKV(0, []byte(key), []byte(val))
	}
	if err != nil {
		t.Fatalf("put %s: %v", key, err)
	}
}

func flag01(ok bool, err error) string {
	if err != nil {
		return "ERR " + err.Error()
	}
	if ok {
		return "1"
	}
	return "0"
}

func (f *storeFront) do(t *testing.T, st step) string {
	t.Helper()
	key := []byte(st.key)
	left, hasTTL, exists := f.s.TTL(0, key)
	switch st.op {
	case "set":
		if (st.flag == "NX" && exists) || (st.flag == "XX" && !exists) {
			return "nil"
		}
		ttl := time.Duration(st.n) * time.Millisecond
		if st.flag == "KEEPTTL" && hasTTL {
			ttl = left
		}
		f.put(t, st.key, st.val, ttl)
		return "OK"
	case "get":
		if v, ok := f.s.GetKV(0, key); ok {
			return string(v)
		}
		return "nil"
	case "del":
		return flag01(f.s.DeleteKV(0, key))
	case "incr":
		var n int64
		if v, ok := f.s.GetKV(0, key); ok {
			n, _ = strconv.ParseInt(string(v), 10, 64)
		}
		n++
		f.put(t, st.key, strconv.FormatInt(n, 10), left)
		return strconv.FormatInt(n, 10)
	case "pexpire":
		return flag01(f.s.Expire(0, key, time.Duration(st.n)*time.Millisecond))
	case "persist":
		return flag01(f.s.Persist(0, key))
	case "pttl":
		switch {
		case !exists:
			return "-2"
		case !hasTTL:
			return "-1"
		}
		return strconv.FormatInt(left.Milliseconds(), 10)
	}
	t.Fatalf("storeFront: unknown op %q", st.op)
	return ""
}

func (f *storeFront) backing() (*core.Table, *expiry.Index, *Store) {
	return f.s.Table(), f.s.Expiry(), f.s
}

func (f *storeFront) restart(t *testing.T, crash bool) {
	t.Helper()
	takeDown(t, f.s, crash)
	f.s = openKV(t, f.dir, f.now)
}

func (f *storeFront) stop(t *testing.T) { takeDown(t, f.s, false) }

// ---------------------------------------------------------------------------
// The harness
// ---------------------------------------------------------------------------

// describeLog decodes the redo records in b, deadlines relative to t0.
func describeLog(t *testing.T, b []byte) string {
	t.Helper()
	var recs []string
	for len(b) > 0 {
		r, n, err := DecodeRecord(b)
		if err != nil {
			t.Fatalf("decode log: %v", err)
		}
		switch r.Kind {
		case recInsertKV:
			recs = append(recs, fmt.Sprintf("ins %s=%s", r.K, r.V))
		case recDeleteKV:
			recs = append(recs, fmt.Sprintf("del %s", r.K))
		case recExpireKV:
			at := "none"
			if r.At > 0 {
				at = fmt.Sprintf("%+d", r.At-t0)
			}
			recs = append(recs, fmt.Sprintf("exp %s@%s", r.K, at))
		default:
			recs = append(recs, fmt.Sprintf("kind%d", r.Kind))
		}
		b = b[n:]
	}
	return strings.Join(recs, ", ")
}

// dump is the observable state: every script key's value and remaining
// TTL, read through the front.
func dump(t *testing.T, f front) string {
	t.Helper()
	seen := map[string]bool{}
	var out []string
	for _, st := range kvScript {
		if st.key == "" || seen[st.key] {
			continue
		}
		seen[st.key] = true
		get := f.do(t, step{op: "get", key: st.key})
		pttl := f.do(t, step{op: "pttl", key: st.key})
		out = append(out, st.key+"="+get+"/"+pttl)
	}
	return strings.Join(out, " ")
}

func TestKVConformance(t *testing.T) {
	fronts := []struct {
		name string
		open func(t *testing.T, now *atomic.Int64) front
	}{
		{"resp-ram", func(t *testing.T, now *atomic.Int64) front { return newRESPFront(t, "", now) }},
		{"resp-durable", func(t *testing.T, now *atomic.Int64) front { return newRESPFront(t, t.TempDir(), now) }},
		{"store", func(t *testing.T, now *atomic.Int64) front {
			dir := t.TempDir()
			return &storeFront{dir: dir, now: now, s: openKV(t, dir, now)}
		}},
	}
	finals := map[string]string{}
	for _, fc := range fronts {
		t.Run(fc.name, func(t *testing.T) {
			var now atomic.Int64
			now.Store(t0)
			f := fc.open(t, &now)
			defer func() { f.stop(t) }()
			tbl, ix, store := f.backing()

			var spans []int64 // bytes each step appended, durable fronts only
			for i, st := range kvScript {
				var before int64
				if store != nil {
					before = store.Log().Appended()
				}
				switch st.op {
				case "advance":
					now.Add(st.n)
				case "sweep":
					h := tbl.MustHandle()
					expiry.Bind(h, ix, nil).PurgeExpired()
					h.Close()
				case "len":
					h := tbl.MustHandle()
					if got := strconv.Itoa(h.Len()); got != st.want {
						t.Errorf("step %d: len = %s, want %s", i, got, st.want)
					}
					h.Close()
				default:
					if got := f.do(t, st); got != st.want {
						t.Errorf("step %d %+v: got %s", i, st, got)
					}
				}
				if store != nil {
					spans = append(spans, store.Log().Appended()-before)
				}
			}
			final := dump(t, f)
			finals[fc.name] = final
			if store == nil {
				return
			}

			// Every step was acknowledged, so a crash loses none of them.
			dir := store.dir
			f.restart(t, true)
			segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
			if err != nil || len(segs) != 2 {
				t.Fatalf("segments after one restart: %v, %v", segs, err)
			}
			logged, err := os.ReadFile(segs[0])
			if err != nil {
				t.Fatal(err)
			}
			for i, st := range kvScript {
				n := spans[i]
				if int64(len(logged)) < n {
					t.Fatalf("step %d: log is %d bytes short", i, n-int64(len(logged)))
				}
				got := ""
				if n > 0 {
					got = fmt.Sprintf("%dB: %s", n, describeLog(t, logged[:n]))
				}
				if got != st.log {
					t.Errorf("step %d %+v: logged %q", i, st, got)
				}
				logged = logged[n:]
			}
			if len(logged) != 0 {
				t.Errorf("%d log bytes belong to no step", len(logged))
			}
			if got := dump(t, f); got != final {
				t.Errorf("after crash and reopen:\n got %s\nwant %s", got, final)
			}
			f.restart(t, false)
			if got := dump(t, f); got != final {
				t.Errorf("after close and reopen:\n got %s\nwant %s", got, final)
			}
		})
	}
	for name, got := range finals {
		if want := finals["resp-ram"]; got != want {
			t.Errorf("%s ends in a different state:\n got %s\nwant %s", name, got, want)
		}
	}
}

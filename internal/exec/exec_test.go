package exec

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	core "repro/internal/core"
)

// buildScript makes a deterministic mixed-op script over keys in
// [base, base+keys): every op kind, with heavy key reuse so ordering
// violations surface as wrong results.
func buildScript(r *rand.Rand, base, keys uint64, n int) []core.Op {
	ops := make([]core.Op, n)
	for i := range ops {
		k := base + r.Uint64()%keys
		switch r.Intn(10) {
		case 0, 1, 2, 3:
			ops[i] = core.Op{Kind: core.OpGet, Key: k}
		case 4, 5:
			ops[i] = core.Op{Kind: core.OpInsert, Key: k, Value: r.Uint64()}
		case 6:
			ops[i] = core.Op{Kind: core.OpPut, Key: k, Value: r.Uint64()}
		case 7:
			ops[i] = core.Op{Kind: core.OpDelete, Key: k}
		case 8:
			ops[i] = core.Op{Kind: core.OpInsertShadow, Key: k, Value: r.Uint64()}
		case 9:
			ops[i] = core.Op{Kind: core.OpCommitShadow, Key: k, Value: uint64(r.Intn(2))}
		}
	}
	return ops
}

// drain consumes a session until it reports done, returning completions in
// delivery (= submission) order.
func drain(sess *Session) []Done {
	var out []Done
	buf := make([]Done, 0, 64)
	for {
		run, ok := sess.Await(buf[:0], nil)
		out = append(out, run...)
		if !ok {
			return out
		}
	}
}

// TestExecutorVsOracle is the executor property test: M sessions submit
// mixed-op scripts over disjoint key ranges concurrently — across a table
// small enough that the inserts force several resizes mid-run — and every
// session's completion stream must equal a single-handle oracle executing
// the same script alone: a session is pinned to one shard, so its ops on
// one key must observe program order.
func TestExecutorVsOracle(t *testing.T) {
	t.Run("shared", func(t *testing.T) {
		const (
			sessions = 6
			opsPer   = 5000
			keys     = 300
		)
		tbl := core.MustNew(core.Config{Bins: 64, Resizable: true, MaxThreads: 64})
		ex, err := New(tbl, Options{Shards: 4, ring: 64, sessionWindow: 128})
		if err != nil {
			t.Fatal(err)
		}
		defer ex.Close()

		scripts := make([][]core.Op, sessions)
		results := make([][]Done, sessions)
		var wg sync.WaitGroup
		for si := 0; si < sessions; si++ {
			r := rand.New(rand.NewSource(int64(si)*7919 + 1))
			scripts[si] = buildScript(r, uint64(si)*1_000_000, keys, opsPer)
			sess, err := ex.NewSession()
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(2)
			go func(si int, sess *Session) {
				defer wg.Done()
				for _, op := range scripts[si] {
					if err := sess.Submit(op); err != nil {
						t.Error(err)
						break
					}
				}
				sess.FinishSubmit()
			}(si, sess)
			go func(si int, sess *Session) {
				defer wg.Done()
				results[si] = drain(sess)
			}(si, sess)
		}
		wg.Wait()

		for si := range scripts {
			oracle := make([]core.Op, len(scripts[si]))
			copy(oracle, scripts[si])
			oh := core.MustNew(core.Config{Bins: 64, Resizable: true}).MustHandle()
			oh.Exec(oracle, false)
			res := results[si]
			if len(res) != len(oracle) {
				t.Fatalf("session %d: %d completions, want %d", si, len(res), len(oracle))
			}
			for i := range oracle {
				got, want := res[i].Op, oracle[i]
				if got.Result != want.Result || got.OK != want.OK || got.Err != want.Err {
					t.Fatalf("session %d op %d (%v key %d): got (%d,%v,%v), oracle (%d,%v,%v)",
						si, i, want.Kind, want.Key,
						got.Result, got.OK, got.Err,
						want.Result, want.OK, want.Err)
				}
			}
		}
		if tbl.NumBins() == 64 {
			t.Fatal("table never resized; the test lost its concurrent-resize coverage")
		}
	})
}

// TestExecutorKVVsModel drives the variable-length surface: sessions mix
// KVInsert/KVGet/KVDelete over per-session key prefixes and the in-order
// completion stream must match a sequential map model.
func TestExecutorKVVsModel(t *testing.T) {
	t.Run("shared", func(t *testing.T) {
		const (
			sessions = 4
			opsPer   = 3000
			keys     = 60
		)
		tbl := core.MustNew(core.Config{
			Mode: core.Allocator, Bins: 64, Resizable: true,
			VariableKV: true, Namespaces: true, EpochGC: true, MaxThreads: 32,
		})
		ex, err := New(tbl, Options{Shards: 3, ring: 32, sessionWindow: 64})
		if err != nil {
			t.Fatal(err)
		}
		defer ex.Close()

		type kvScript struct {
			kinds []KVKind
			keys  [][]byte
			vals  [][]byte
		}
		scripts := make([]kvScript, sessions)
		results := make([][]Done, sessions)
		var wg sync.WaitGroup
		for si := 0; si < sessions; si++ {
			r := rand.New(rand.NewSource(int64(si)*104729 + 5))
			sc := kvScript{}
			for i := 0; i < opsPer; i++ {
				k := fmt.Appendf(nil, "s%d-key-%d", si, r.Intn(keys))
				if r.Intn(8) == 0 { // some big keys exercise out-of-line compares
					k = append(k, bytes.Repeat([]byte("x"), 40)...)
				}
				switch r.Intn(4) {
				case 0, 1:
					sc.kinds = append(sc.kinds, KVGet)
					sc.vals = append(sc.vals, nil)
				case 2:
					sc.kinds = append(sc.kinds, KVInsert)
					sc.vals = append(sc.vals, fmt.Appendf(nil, "v-%d-%d", si, r.Int()))
				case 3:
					sc.kinds = append(sc.kinds, KVDelete)
					sc.vals = append(sc.vals, nil)
				}
				sc.keys = append(sc.keys, k)
			}
			scripts[si] = sc
			sess, err := ex.NewSession()
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(2)
			go func(sc kvScript, sess *Session) {
				defer wg.Done()
				for i := range sc.kinds {
					kv := &KVOp{Kind: sc.kinds[i], NS: 0, Key: sc.keys[i], Value: sc.vals[i]}
					if err := sess.SubmitKV(kv); err != nil {
						t.Error(err)
						break
					}
				}
				sess.FinishSubmit()
			}(sc, sess)
			go func(si int, sess *Session) {
				defer wg.Done()
				results[si] = drain(sess)
			}(si, sess)
		}
		wg.Wait()

		for si := range scripts {
			sc, res := scripts[si], results[si]
			if len(res) != len(sc.kinds) {
				t.Fatalf("session %d: %d completions, want %d", si, len(res), len(sc.kinds))
			}
			model := map[string][]byte{}
			for i, d := range res {
				kv := d.KV
				if kv == nil {
					t.Fatalf("session %d op %d: fixed-op completion for a KV submit", si, i)
				}
				key := string(sc.keys[i])
				switch sc.kinds[i] {
				case KVGet:
					want, exists := model[key]
					if kv.OK != exists || (exists && !bytes.Equal(kv.Out, want)) {
						t.Fatalf("session %d op %d: GetKV(%q) = (%q,%v), model (%q,%v)",
							si, i, key, kv.Out, kv.OK, want, exists)
					}
				case KVInsert:
					if _, exists := model[key]; exists {
						if !errors.Is(kv.Err, core.ErrExists) {
							t.Fatalf("session %d op %d: dup InsertKV err = %v, want ErrExists", si, i, kv.Err)
						}
					} else {
						if kv.Err != nil || !kv.OK {
							t.Fatalf("session %d op %d: InsertKV = (%v,%v)", si, i, kv.OK, kv.Err)
						}
						model[key] = sc.vals[i]
					}
				case KVDelete:
					_, exists := model[key]
					if kv.OK != exists {
						t.Fatalf("session %d op %d: DeleteKV(%q) ok=%v, model %v", si, i, key, kv.OK, exists)
					}
					delete(model, key)
				}
			}
		}
	})
}

// TestExecutorCloseDrains: Close under live producers must execute or
// explicitly fail every accepted request, deliver all completions before
// returning, release every shard handle, and reject new sessions.
func TestExecutorCloseDrains(t *testing.T) {
	const maxThreads = 8
	tbl := core.MustNew(core.Config{Bins: 1 << 10, Resizable: true, MaxThreads: maxThreads})
	ex, err := New(tbl, Options{Shards: 4, ring: 64, sessionWindow: 64})
	if err != nil {
		t.Fatal(err)
	}
	const sessions = 4
	var wg sync.WaitGroup
	submitted := make([]int, sessions)
	delivered := make([]int, sessions)
	for si := 0; si < sessions; si++ {
		sess, err := ex.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(2)
		go func(si int, sess *Session) {
			defer wg.Done()
			k := uint64(si) << 32
			for {
				err := sess.Submit(core.Op{Kind: core.OpInsert, Key: k, Value: k})
				submitted[si]++ // ErrClosed submissions still complete in order
				k++
				if err != nil {
					break
				}
			}
			sess.FinishSubmit()
		}(si, sess)
		go func(si int, sess *Session) {
			defer wg.Done()
			delivered[si] = len(drain(sess))
		}(si, sess)
	}
	ex.Close()
	// Every shard handle must be back: the table can hand out its full
	// complement again.
	for i := 0; i < maxThreads; i++ {
		h, err := tbl.Handle()
		if err != nil {
			t.Fatalf("handle %d not released after Close: %v", i, err)
		}
		defer h.Close()
	}
	if _, err := ex.NewSession(); !errors.Is(err, ErrClosed) {
		t.Fatalf("NewSession after Close = %v, want ErrClosed", err)
	}
	wg.Wait()
	for si := range submitted {
		if submitted[si] == 0 || submitted[si] != delivered[si] {
			t.Fatalf("session %d: %d submitted, %d delivered", si, submitted[si], delivered[si])
		}
	}
}

// TestSessionKVBounds: a session pipelining large KV payloads is gated by
// the per-session op and byte bounds — progress continues (no deadlock at
// either bound), results stay correct, and the budget drains back to zero
// once everything is delivered.
func TestSessionKVBounds(t *testing.T) {
	tbl := core.MustNew(core.Config{
		Mode: core.Allocator, Bins: 1 << 8, Resizable: true,
		VariableKV: true, EpochGC: true, MaxThreads: 8,
	})
	ex, err := New(tbl, Options{Shards: 2, sessionKVInflight: 4, sessionKVBytes: 1 << 18})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	sess, err := ex.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	val := bytes.Repeat([]byte("v"), 48<<10) // byte bound binds every ~5 ops
	results := make(chan []Done, 1)
	go func() {
		var out []Done
		buf := make([]Done, 0, 8)
		for {
			run, ok := sess.Await(buf[:0], nil)
			out = append(out, run...)
			if !ok {
				results <- out
				return
			}
		}
	}()
	for i := 0; i < n; i++ {
		key := fmt.Appendf(nil, "big-%d", i)
		if err := sess.SubmitKV(&KVOp{Kind: KVInsert, Key: key, Value: val}); err != nil {
			t.Fatal(err)
		}
		if err := sess.SubmitKV(&KVOp{Kind: KVGet, Key: key}); err != nil {
			t.Fatal(err)
		}
	}
	sess.FinishSubmit()
	out := <-results
	if len(out) != 2*n {
		t.Fatalf("%d completions, want %d", len(out), 2*n)
	}
	for i := 0; i < n; i++ {
		ins, get := out[2*i].KV, out[2*i+1].KV
		if ins.Err != nil || !ins.OK {
			t.Fatalf("insert %d: (%v,%v)", i, ins.OK, ins.Err)
		}
		if !get.OK || !bytes.Equal(get.Out, val) {
			t.Fatalf("get %d: ok=%v len=%d", i, get.OK, len(get.Out))
		}
	}
	sess.mu.Lock()
	inflight, bytesHeld := sess.kvInflight, sess.kvBytes
	sess.mu.Unlock()
	if inflight != 0 || bytesHeld != 0 {
		t.Fatalf("KV budget not drained: %d ops, %d bytes", inflight, bytesHeld)
	}
}

// TestSessionFailOrdering: Fail takes a sequence slot like any submission,
// so its completion is delivered behind everything submitted before it.
func TestSessionFailOrdering(t *testing.T) {
	tbl := core.MustNew(core.Config{Bins: 1 << 8, Resizable: true})
	ex, err := New(tbl, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	sess, err := ex.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("bad frame")
	const n = 100
	for i := uint64(0); i < n; i++ {
		if err := sess.Submit(core.Op{Kind: core.OpInsert, Key: i, Value: i}); err != nil {
			t.Fatal(err)
		}
	}
	sess.Fail(sentinel)
	sess.FinishSubmit()
	out := drain(sess)
	if len(out) != n+1 {
		t.Fatalf("%d completions, want %d", len(out), n+1)
	}
	for i := 0; i < n; i++ {
		if !out[i].Op.OK {
			t.Fatalf("insert %d failed: %v", i, out[i].Op.Err)
		}
	}
	if out[n].Op.Err != sentinel {
		t.Fatalf("tail completion err = %v, want the Fail sentinel", out[n].Op.Err)
	}
}

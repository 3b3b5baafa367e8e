package exec

import (
	"errors"
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
				// Bursts of 1..29 ops: single-op and multi-chunk submissions.
				for lo, sc := 0, scripts[si]; lo < len(sc); {
					n := min(1+lo%29, len(sc)-lo)
					if err := sess.SubmitBatch(sc[lo : lo+n]); err != nil {
						t.Error(err)
						break
					}
					lo += n
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
				err := sess.SubmitBatch([]core.Op{{Kind: core.OpInsert, Key: k, Value: k}})
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

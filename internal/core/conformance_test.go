package core

import (
	"errors"
	"fmt"
	"testing"
)

// conformanceScript is one op script every fixed-op path must answer
// identically: hits and misses, a duplicate insert, a shadow insert that is
// committed and one that is aborted, inserts of both transfer keys, and a
// Put, which a HashSet table refuses.
var conformanceScript = []Op{
	{Kind: OpInsert, Key: 1, Value: 10},
	{Kind: OpGet, Key: 1},
	{Kind: OpInsert, Key: 1, Value: 11}, // duplicate
	{Kind: OpPut, Key: 1, Value: 12},
	{Kind: OpPut, Key: 2, Value: 20}, // absent
	{Kind: OpGet, Key: 1},
	{Kind: OpInsertShadow, Key: 3, Value: 30},
	{Kind: OpGet, Key: 3},               // hidden
	{Kind: OpInsert, Key: 3, Value: 31}, // locked: ErrShadow
	{Kind: OpCommitShadow, Key: 3, Value: 1},
	{Kind: OpGet, Key: 3},
	{Kind: OpInsertShadow, Key: 4, Value: 40},
	{Kind: OpCommitShadow, Key: 4, Value: 0}, // abort
	{Kind: OpGet, Key: 4},
	{Kind: OpCommitShadow, Key: 4, Value: 1}, // nothing left to commit
	{Kind: OpInsert, Key: TransferKeyEven, Value: 1},
	{Kind: OpInsertShadow, Key: TransferKeyOdd, Value: 1},
	{Kind: OpGet, Key: TransferKeyEven},
	{Kind: OpDelete, Key: 1},
	{Kind: OpDelete, Key: 1},
	{Kind: OpGet, Key: 1},
}

// outcome is one op's (Result, OK, Err). noErr marks a sync call with no
// error result (Get, Delete, CommitShadow): a refusal reads as a miss
// there, so its Err is compared as nil.
type outcome struct {
	Result uint64
	OK     bool
	Err    error
	noErr  bool
}

func (o outcome) String() string { return fmt.Sprintf("(%d, %v, %v)", o.Result, o.OK, o.Err) }

// matches compares o against the reference outcome want.
func (o outcome) matches(want outcome) bool {
	if o.noErr {
		want.Err = nil
	}
	return o.Result == want.Result && o.OK == want.OK &&
		(o.Err == want.Err || o.Err != nil && want.Err != nil && errors.Is(o.Err, want.Err))
}

// catch runs one op, turning a panic into an error no refusal matches, so
// a path that panics on a row reports that row instead of ending the test.
// panicErr is the one panic that is a contract: a sync Put's refusal.
func catch(f func() outcome, panicErr bool) (o outcome) {
	defer func() {
		if r := recover(); r != nil {
			err, ok := r.(error)
			if !ok || !panicErr {
				err = fmt.Errorf("panic: %v", r)
			}
			o = outcome{Err: err}
		}
	}()
	return f()
}

// syncOp runs op through h's synchronous ops.
func syncOp(h *Handle, op Op) outcome {
	return catch(func() outcome {
		switch op.Kind {
		case OpGet:
			v, ok := h.Get(op.Key)
			return outcome{Result: v, OK: ok, noErr: true}
		case OpPut:
			v, ok := h.Put(op.Key, op.Value)
			return outcome{Result: v, OK: ok}
		case OpInsert:
			v, err := h.Insert(op.Key, op.Value)
			return outcome{Result: v, OK: err == nil, Err: err}
		case OpInsertShadow:
			v, err := h.InsertShadow(op.Key, op.Value)
			return outcome{Result: v, OK: err == nil, Err: err}
		case OpDelete:
			v, ok := h.Delete(op.Key)
			return outcome{Result: v, OK: ok, noErr: true}
		default:
			return outcome{OK: h.CommitShadow(op.Key, op.Value != 0), noErr: true}
		}
	}, op.Kind == OpPut)
}

// storeOp runs op through a local Store's sync surface. Store has no
// shadow ops; those rows run on the Store's own handle.
func storeOp(s Store, op Op) outcome {
	return catch(func() outcome {
		var o outcome
		switch op.Kind {
		case OpGet:
			o.Result, o.OK, o.Err = s.Get(op.Key)
		case OpPut:
			o.Result, o.OK, o.Err = s.Put(op.Key, op.Value)
		case OpInsert:
			o.Result, o.OK, o.Err = s.Insert(op.Key, op.Value)
			if !o.OK && o.Err == nil {
				o.Err = ErrExists // the Store spelling of a duplicate
			}
		case OpDelete:
			o.Result, o.OK, o.Err = s.Delete(op.Key)
		default:
			return syncOp(s.(*localStore).h, op)
		}
		return o
	}, false)
}

// conformancePaths runs the script on a fresh table from cfg through each
// fixed-op path.
var conformancePaths = []struct {
	name string
	run  func(tbl *Table, script []Op) []outcome
}{
	{"exec", func(tbl *Table, script []Op) []outcome {
		ops := append([]Op(nil), script...)
		tbl.MustHandle().Exec(ops, false)
		out := make([]outcome, len(ops))
		for i, op := range ops {
			out[i] = outcome{Result: op.Result, OK: op.OK, Err: op.Err}
		}
		return out
	}},
	{"sync", func(tbl *Table, script []Op) []outcome {
		h := tbl.MustHandle()
		out := make([]outcome, len(script))
		for i, op := range script {
			out[i] = syncOp(h, op)
		}
		return out
	}},
	{"pipeline", func(tbl *Table, script []Op) []outcome {
		var out []outcome
		pl := tbl.MustHandle().Pipeline(PipelineOpts{Window: 4, OnComplete: func(op *Op) {
			out = append(out, outcome{Result: op.Result, OK: op.OK, Err: op.Err})
		}})
		for _, op := range script {
			pl.Enqueue(op)
		}
		pl.Flush()
		return out
	}},
	{"store", func(tbl *Table, script []Op) []outcome {
		s := tbl.MustStore()
		defer s.Close()
		out := make([]outcome, len(script))
		for i, op := range script {
			out[i] = storeOp(s, op)
		}
		return out
	}},
	{"store-pipe", func(tbl *Table, script []Op) []outcome {
		s := tbl.MustStore()
		defer s.Close()
		var out []outcome
		p, err := s.Pipe(PipeOpts{Window: 4, OnComplete: func(c Completion) {
			out = append(out, outcome{Result: c.Value, OK: c.OK, Err: c.Err})
		}})
		if err != nil {
			panic(err)
		}
		// Pipe has no shadow ops: those rows ride the pipe's own Pipeline,
		// in order with the rest.
		pl := p.(*localPipe).pl
		for _, op := range script {
			switch op.Kind {
			case OpGet:
				err = p.Get(op.Key)
			case OpPut:
				err = p.Put(op.Key, op.Value)
			case OpInsert:
				err = p.Insert(op.Key, op.Value)
			case OpDelete:
				err = p.Delete(op.Key)
			default:
				pl.Enqueue(op)
			}
			if err != nil {
				panic(err)
			}
		}
		if err := p.Flush(); err != nil {
			panic(err)
		}
		return out
	}},
}

// TestOpConformance: every fixed-op path — sync Handle ops, Exec,
// Pipeline, Store and Store.Pipe — answers one script with the same
// (Result, OK, Err) on every table kind, because every path runs the same
// op gate and the same op bodies. Exec is the reference; the gate's
// refusals are pinned on it.
func TestOpConformance(t *testing.T) {
	tables := []struct {
		name string
		cfg  Config
	}{
		{"inlined-mt", Config{Bins: 64, Resizable: true}},
		{"inlined-st", Config{Bins: 64, Resizable: true, SingleThread: true}},
		{"hashset", Config{Mode: HashSet, Bins: 64, Resizable: true}},
		{"allocator", Config{Mode: Allocator, Bins: 64, Resizable: true}},
	}
	for _, tc := range tables {
		t.Run(tc.name, func(t *testing.T) {
			var want []outcome
			for _, path := range conformancePaths {
				var got []outcome
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Errorf("%s: panic %v", path.name, r)
						}
					}()
					got = path.run(MustNew(tc.cfg), conformanceScript)
				}()
				if got == nil {
					continue
				}
				if want == nil {
					want = got
					checkGate(t, tc.cfg.Mode, want)
					continue
				}
				if len(got) != len(want) {
					t.Errorf("%s: %d outcomes, want %d", path.name, len(got), len(want))
					continue
				}
				for i, op := range conformanceScript {
					if !got[i].matches(want[i]) {
						t.Errorf("%s row %d (kind %d key %#x): got %v, want %v",
							path.name, i, op.Kind, op.Key, got[i], want[i])
					}
				}
			}
		})
	}
}

// checkGate pins the op gate's refusals on the reference outcomes.
func checkGate(t *testing.T, mode Mode, ref []outcome) {
	t.Helper()
	for i, op := range conformanceScript {
		var want error
		switch {
		case mode == Allocator:
			want = ErrWrongMode
		case op.Kind == OpPut && mode != Inlined:
			want = ErrWrongMode
		case (op.Kind == OpInsert || op.Kind == OpInsertShadow) && isReserved(op.Key):
			want = ErrReservedKey
		}
		if want != nil && (ref[i].OK || ref[i].Err != want) {
			t.Errorf("exec row %d (kind %d key %#x): got %v, want refusal %v", i, op.Kind, op.Key, ref[i], want)
		}
	}
}

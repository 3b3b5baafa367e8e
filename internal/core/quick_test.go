package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// quickSeeds are the sources every quick check replays before a fresh one.
// Seed 362 draws, for config 0 of TestQuickModelEquivalence, an insert into
// a bin whose primary bucket is full while the shared link buckets are
// exhausted: the ErrFull the model must accept.
var quickSeeds = []int64{1, 362}

// quickCheck runs quick.Check on f under each of quickSeeds and then under
// one fresh seed, naming the seed of every failure so it can be added to
// quickSeeds and replayed.
func quickCheck(t *testing.T, name string, f any, maxCount int) {
	t.Helper()
	seeds := append(quickSeeds[:len(quickSeeds):len(quickSeeds)], time.Now().UnixNano())
	for _, seed := range seeds {
		cfg := &quick.Config{MaxCount: maxCount, Rand: rand.New(rand.NewSource(seed))}
		if err := quick.Check(f, cfg); err != nil {
			t.Errorf("%s, seed %d: %v", name, seed, err)
		}
	}
}

// Model-based property test: a random operation sequence applied to the
// table and to a map[uint64]uint64 oracle must agree at every step and at
// the end. Run across table geometries that force chaining and resizing.
func TestQuickModelEquivalence(t *testing.T) {
	configs := []Config{
		{Bins: 4},                                          // heavy chaining
		{Bins: 4, Resizable: true, ChunkBins: 2},           // frequent resizes
		{Bins: 64, Hash: 1},                                // wyhash
		{Bins: 8, Resizable: true, SingleThread: true},     // single-thread path
		{Bins: 16, Resizable: true, StrongSnapshots: true}, // updater counting
	}
	for ci, cfg := range configs {
		cfg := cfg
		f := func(ops []uint16, keys []uint8) bool {
			tb := MustNew(cfg)
			h := tb.MustHandle()
			model := make(map[uint64]uint64)
			for i, op := range ops {
				if len(keys) == 0 {
					return true
				}
				k := uint64(keys[i%len(keys)]) % 48 // small space → collisions
				v := uint64(op)<<32 | uint64(i)
				switch op % 4 {
				case 0:
					_, err := h.Insert(k, v)
					_, exists := model[k]
					if !exists && errors.Is(err, ErrFull) && !cfg.Resizable && binLive(tb, model, k) >= primarySlots {
						break // a full bin with no link bucket left: the table is unchanged
					}
					if exists != (err != nil) {
						t.Logf("cfg %d: insert(%d) err=%v exists=%v", ci, k, err, exists)
						return false
					}
					if err == nil {
						model[k] = v
					}
				case 1:
					got, ok := h.Delete(k)
					want, exists := model[k]
					if ok != exists || (ok && got != want) {
						t.Logf("cfg %d: delete(%d)=(%d,%v) want (%d,%v)", ci, k, got, ok, want, exists)
						return false
					}
					delete(model, k)
				case 2:
					old, ok := h.Put(k, v)
					want, exists := model[k]
					if ok != exists || (ok && old != want) {
						t.Logf("cfg %d: put(%d)=(%d,%v) want (%d,%v)", ci, k, old, ok, want, exists)
						return false
					}
					if ok {
						model[k] = v
					}
				default:
					got, ok := h.Get(k)
					want, exists := model[k]
					if ok != exists || (ok && got != want) {
						t.Logf("cfg %d: get(%d)=(%d,%v) want (%d,%v)", ci, k, got, ok, want, exists)
						return false
					}
				}
			}
			// Final sweep: table contents == model contents.
			if h.Len() != len(model) {
				t.Logf("cfg %d: len=%d model=%d", ci, h.Len(), len(model))
				return false
			}
			for k, want := range model {
				if got, ok := h.Get(k); !ok || got != want {
					t.Logf("cfg %d: final get(%d)=(%d,%v) want %d", ci, k, got, ok, want)
					return false
				}
			}
			return true
		}
		quickCheck(t, fmt.Sprintf("config %d", ci), f, 60)
	}
}

// binLive counts the model's keys in k's bin of tb's current index.
func binLive(tb *Table, model map[uint64]uint64, k uint64) int {
	bins := tb.NumBins()
	n := 0
	for mk := range model {
		if tb.HashOf(mk)%bins == tb.HashOf(k)%bins {
			n++
		}
	}
	return n
}

// Batch execution must be equivalent to issuing the same ops one at a time.
func TestQuickBatchEquivalence(t *testing.T) {
	f := func(raw []uint32) bool {
		tbA := MustNew(Config{Bins: 8, Resizable: true, ChunkBins: 2})
		tbB := MustNew(Config{Bins: 8, Resizable: true, ChunkBins: 2})
		ha, hb := tbA.MustHandle(), tbB.MustHandle()
		ops := make([]Op, 0, len(raw))
		for i, r := range raw {
			kind := OpKind(r % 4)
			if kind == OpInsertShadow {
				kind = OpInsert
			}
			ops = append(ops, Op{Kind: kind, Key: uint64(r % 32), Value: uint64(i) + 1})
		}
		// A: batched (in sub-batches of 7 to vary boundaries).
		for i := 0; i < len(ops); i += 7 {
			end := i + 7
			if end > len(ops) {
				end = len(ops)
			}
			ha.Exec(ops[i:end], false)
		}
		// B: one at a time.
		single := make([]Op, len(ops))
		copy(single, ops)
		for i := range single {
			switch single[i].Kind {
			case OpGet:
				single[i].Result, single[i].OK = hb.Get(single[i].Key)
			case OpPut:
				single[i].Result, single[i].OK = hb.Put(single[i].Key, single[i].Value)
			case OpInsert:
				single[i].Result, single[i].Err = hb.Insert(single[i].Key, single[i].Value)
				single[i].OK = single[i].Err == nil
			case OpDelete:
				single[i].Result, single[i].OK = hb.Delete(single[i].Key)
			}
		}
		for i := range ops {
			if ops[i].OK != single[i].OK || ops[i].Result != single[i].Result {
				t.Logf("op %d (%v key %d): batch (%d,%v) vs single (%d,%v)",
					i, ops[i].Kind, ops[i].Key, ops[i].Result, ops[i].OK,
					single[i].Result, single[i].OK)
				return false
			}
		}
		// Final state equivalence.
		var entriesA, entriesB map[uint64]uint64
		entriesA = map[uint64]uint64{}
		entriesB = map[uint64]uint64{}
		ha.Range(func(k, v uint64) bool { entriesA[k] = v; return true })
		hb.Range(func(k, v uint64) bool { entriesB[k] = v; return true })
		if len(entriesA) != len(entriesB) {
			return false
		}
		for k, v := range entriesA {
			if entriesB[k] != v {
				return false
			}
		}
		return true
	}
	quickCheck(t, "batch", f, 40)
}

// Occupancy invariant: occupied count from the probe equals live entries.
func TestQuickOccupancyMatchesLen(t *testing.T) {
	f := func(keys []uint16) bool {
		tb := MustNew(Config{Bins: 16, Resizable: true, ChunkBins: 4})
		h := tb.MustHandle()
		live := map[uint64]bool{}
		for _, k := range keys {
			key := uint64(k % 512)
			if live[key] {
				h.Delete(key)
				delete(live, key)
			} else if _, err := h.Insert(key, 1); err == nil {
				live[key] = true
			}
		}
		s := tb.Stats()
		return int(s.Occupied) == len(live) && h.Len() == len(live)
	}
	quickCheck(t, "occupancy", f, 50)
}

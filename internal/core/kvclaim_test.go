package core

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
)

// TestKVDeleteRacingReplaceRetiresOnce races a KV delete against a KV
// replace of the same key on another handle, on an EpochGC table. A
// delete that invalidated the slot in the header but left its words in
// place let a replace that scanned before it swap a new block into the
// dead slot: both ops then retired the old block, the arena's free list
// handed it out twice, and the replace's new block leaked. After the race
// and an epoch drain, fresh pairs of the racing pairs' size class must
// all read back as written: a block on the free list twice holds two of
// them.
func TestKVDeleteRacingReplaceRetiresOnce(t *testing.T) {
	ops, fresh := 100_000, 40_000
	if raceEnabled {
		ops, fresh = 20_000, 10_000
	}
	tbl := MustNew(Config{Mode: Allocator, Bins: 4, Resizable: true, VariableKV: true, EpochGC: true, MaxThreads: 4})
	hs := []*Handle{tbl.MustHandle(), tbl.MustHandle(), tbl.MustHandle()}
	key := []byte("k")
	hash := tbl.HashOfKV(0, key)
	val := []byte("01234567")

	var wg sync.WaitGroup
	wg.Add(2)
	go func(h *Handle) {
		defer wg.Done()
		for i := 0; i < ops; i++ {
			if err := h.UpsertKVHashed(0, key, val, hash, 0); err != nil {
				t.Error(err)
				return
			}
			if i%64 == 0 {
				h.AdvanceEpoch()
			}
		}
	}(hs[0])
	go func(h *Handle) {
		defer wg.Done()
		for i := 0; i < ops; i++ {
			h.DeleteKVHashed(0, key, hash)
			h.InsertKVHashed(0, key, val, hash) // ErrExists when the upsert got there first
			if i%64 == 0 {
				h.AdvanceEpoch()
			}
		}
	}(hs[1])
	wg.Wait()
	for i := 0; i < 4; i++ {
		for _, h := range hs {
			h.AdvanceEpoch()
		}
	}

	// 7-byte keys stay in the slot, so a fresh block is header + 8-byte
	// value: the racing pairs' class.
	h := hs[2]
	freshKey := func(i int) []byte { return []byte(fmt.Sprintf("f%06d", i)) }
	var v [8]byte
	for i := 0; i < fresh; i++ {
		binary.LittleEndian.PutUint64(v[:], uint64(i))
		if err := h.InsertKV(0, freshKey(i), v[:]); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	wrong := 0
	for i := 0; i < fresh; i++ {
		got, ok := h.GetKV(0, freshKey(i))
		if !ok || len(got) != 8 || binary.LittleEndian.Uint64(got) != uint64(i) {
			wrong++
		}
	}
	if wrong != 0 {
		t.Fatalf("%d of %d fresh pairs read back wrong after a delete raced a replace", wrong, fresh)
	}
}

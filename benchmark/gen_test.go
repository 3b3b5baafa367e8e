package main

import (
	"testing"

	core "repro/internal/core"
)

func testSpec(seed uint64) genSpec {
	return genSpec{seed: seed, keys: 1 << 12, dist: zipf, mix: mix{get: 50, put: 20, churn: 30}, workers: 2, ownWrites: true}
}

func TestStreamRepeatsForASeed(t *testing.T) {
	a := streamHash(genStream(testSpec(7), 1, 1<<14).ops)
	b := streamHash(genStream(testSpec(7), 1, 1<<14).ops)
	c := streamHash(genStream(testSpec(8), 1, 1<<14).ops)
	if a != b {
		t.Errorf("seed 7 gave stream hashes %x and %x", a, b)
	}
	if a == c {
		t.Errorf("seeds 7 and 8 gave the same stream hash %x", a)
	}
}

// TestStreamIsCyclic replays a stream twice against a model table that
// starts with the resident keys and the ring: every Insert must find its
// key absent and every Delete present, on both passes.
func TestStreamIsCyclic(t *testing.T) {
	gs := testSpec(3)
	ks := newKeyspace(gs.seed, gs.keys)
	for _, n := range []int{1 << 10, 1 << 15} { // fewer and more churn pairs than churnLive
		st := genStream(gs, 0, n)
		live := map[uint64]bool{}
		for i := uint64(0); i < ks.n; i++ {
			live[ks.key(i)] = true
		}
		for _, k := range st.ring {
			if live[k] {
				t.Fatalf("ring key %x is resident or repeated", k)
			}
			live[k] = true
		}
		for pass := 0; pass < 2; pass++ {
			for i, o := range st.ops {
				switch o.kind {
				case core.OpInsert:
					if live[o.key] {
						t.Fatalf("n=%d pass %d op %d: Insert of live key", n, pass, i)
					}
					live[o.key] = true
				case core.OpDelete:
					if !live[o.key] {
						t.Fatalf("n=%d pass %d op %d: Delete of absent key", n, pass, i)
					}
					delete(live, o.key)
				default:
					idx, ok := ks.index(o.key)
					if !ok {
						t.Fatalf("n=%d op %d: %v of a key that is not resident", n, i, o.kind)
					}
					if o.kind == core.OpPut && idx%2 != 0 {
						t.Fatalf("n=%d op %d: worker 0 Puts index %d", n, i, idx)
					}
				}
			}
		}
	}
}

func TestUnmixInvertsMix(t *testing.T) {
	for _, x := range []uint64{0, 1, 1 << 40, ^uint64(0), 0x123456789abcdef} {
		if got := unmix64(mix64(x)); got != x {
			t.Errorf("unmix64(mix64(%x)) = %x", x, got)
		}
	}
}

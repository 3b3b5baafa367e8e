package alloc

import (
	"sync"
	"testing"
	"testing/quick"
)

func allocators() map[string]func() Allocator {
	return map[string]func() Allocator{
		"arena": func() Allocator { return NewArena(WithRegionSize(1 << 18)) },
		"naive": func() Allocator { return NewNaive() },
	}
}

func TestAllocBasicRoundTrip(t *testing.T) {
	for name, mk := range allocators() {
		t.Run(name, func(t *testing.T) {
			a := mk()
			ref, b := a.Alloc(32)
			if ref.IsNil() {
				t.Fatal("got nil ref")
			}
			if len(b) != 32 {
				t.Fatalf("len = %d, want 32", len(b))
			}
			for i := range b {
				b[i] = byte(i)
			}
			view := a.Bytes(ref, 32)
			for i := range view {
				if view[i] != byte(i) {
					t.Fatalf("byte %d = %d, want %d", i, view[i], i)
				}
			}
			a.Free(ref)
		})
	}
}

func TestAllocZeroInitialized(t *testing.T) {
	a := NewArena(WithRegionSize(1 << 18))
	// Dirty a block, free it, re-allocate the same class: must be zeroed.
	ref, b := a.Alloc(64)
	for i := range b {
		b[i] = 0xff
	}
	a.Free(ref)
	_, b2 := a.Alloc(64)
	for i, v := range b2 {
		if v != 0 {
			t.Fatalf("recycled block byte %d = %#x, want 0", i, v)
		}
	}
}

func TestAllocDistinctBlocks(t *testing.T) {
	for name, mk := range allocators() {
		t.Run(name, func(t *testing.T) {
			a := mk()
			refs := map[Ref]bool{}
			views := make([][]byte, 0, 100)
			for i := 0; i < 100; i++ {
				ref, b := a.Alloc(16)
				if refs[ref] {
					t.Fatalf("duplicate ref %#x", ref)
				}
				refs[ref] = true
				views = append(views, b)
			}
			// Writing a distinct pattern in each block must not cross-talk.
			for i, b := range views {
				for j := range b {
					b[j] = byte(i)
				}
			}
			for i, b := range views {
				for j := range b {
					if b[j] != byte(i) {
						t.Fatalf("block %d corrupted at %d", i, j)
					}
				}
			}
		})
	}
}

func TestArenaFreeReuse(t *testing.T) {
	a := NewArena(WithRegionSize(1 << 18))
	ref1, _ := a.Alloc(100)
	a.Free(ref1)
	ref2, _ := a.Alloc(100)
	if ref1 != ref2 {
		t.Fatalf("free list not reused: %#x vs %#x", ref1, ref2)
	}
}

func TestArenaRegionGrowth(t *testing.T) {
	a := NewArena(WithRegionSize(1 << 16)) // 64 KiB regions
	var refs []Ref
	for i := 0; i < 100; i++ {
		r, b := a.Alloc(4096)
		for j := range b {
			b[j] = byte(i)
		}
		refs = append(refs, r)
	}
	if a.Stats().Regions < 2 {
		t.Fatalf("expected region growth, got %d regions", a.Stats().Regions)
	}
	for i, r := range refs {
		b := a.Bytes(r, 4096)
		for j := range b {
			if b[j] != byte(i) {
				t.Fatalf("block %d corrupted after growth", i)
			}
		}
	}
}

func TestArenaStats(t *testing.T) {
	a := NewArena(WithRegionSize(1 << 18))
	r1, _ := a.Alloc(8)
	r2, _ := a.Alloc(100) // class 128
	s := a.Stats()
	if s.Allocs != 2 || s.Frees != 0 {
		t.Fatalf("stats = %+v", s)
	}
	if s.HeapUsed != 8+128 {
		t.Fatalf("HeapUsed = %d, want 136", s.HeapUsed)
	}
	a.Free(r1)
	a.Free(r2)
	s = a.Stats()
	if s.Frees != 2 || s.HeapUsed != 0 {
		t.Fatalf("after frees stats = %+v", s)
	}
}

func TestClassFor(t *testing.T) {
	cases := []struct{ n, want int }{
		{1, 0}, {8, 0}, {9, 1}, {16, 1}, {17, 2}, {65536, len(sizeClasses) - 1},
		{65537, -1},
	}
	for _, c := range cases {
		if got := classFor(c.n); got != c.want {
			t.Errorf("classFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestClassForProperty(t *testing.T) {
	f := func(n uint16) bool {
		cls := classFor(int(n) + 1)
		if cls < 0 {
			return int(n)+1 > MaxBlock
		}
		fits := sizeClasses[cls] >= int(n)+1
		tight := cls == 0 || sizeClasses[cls-1] < int(n)+1
		return fits && tight
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestClassForMatchesScan checks the O(1) classFor against the definition —
// the first class that fits — for every request the Arena can serve, and
// one past it.
func TestClassForMatchesScan(t *testing.T) {
	scan := func(n int) int {
		for i, c := range sizeClasses {
			if n <= c {
				return i
			}
		}
		return -1
	}
	for n := 0; n <= MaxBlock+1; n++ {
		if got, want := classFor(n), scan(n); got != want {
			t.Fatalf("classFor(%d) = %d, the scan says %d", n, got, want)
		}
	}
}

func TestRefPacking(t *testing.T) {
	f := func(region uint16, off uint32) bool {
		r := makeRef(region, off)
		return r.region() == region && r.offset() == off && uint64(r) <= RefMask
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNilRefFreeIsNoop(t *testing.T) {
	for name, mk := range allocators() {
		t.Run(name, func(t *testing.T) {
			a := mk()
			a.Free(Nil) // must not panic
			if a.Stats().Frees != 0 {
				t.Fatal("nil free counted")
			}
		})
	}
}

func TestArenaAllocTooLargePanics(t *testing.T) {
	a := NewArena()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on oversized allocation")
		}
	}()
	a.Alloc(MaxBlock + 1)
}

// Concurrent alloc/free torture: each goroutine owns its blocks and verifies
// its own patterns; the arena must never hand the same live block to two
// owners.
func TestArenaConcurrent(t *testing.T) {
	a := NewArena(WithRegionSize(1 << 20))
	const goroutines = 8
	const rounds = 400
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id byte) {
			defer wg.Done()
			type owned struct {
				ref  Ref
				size int
			}
			var mine []owned
			for r := 0; r < rounds; r++ {
				size := 8 + (r%64)*8
				ref, b := a.Alloc(size)
				for i := range b {
					b[i] = id
				}
				mine = append(mine, owned{ref, size})
				if len(mine) > 16 {
					// Verify then free the oldest.
					o := mine[0]
					mine = mine[1:]
					view := a.Bytes(o.ref, o.size)
					for i := range view {
						if view[i] != id {
							t.Errorf("goroutine %d: block stomped", id)
							return
						}
					}
					a.Free(o.ref)
				}
			}
			for _, o := range mine {
				a.Free(o.ref)
			}
		}(byte(g + 1))
	}
	wg.Wait()
	s := a.Stats()
	if s.Allocs != s.Frees {
		t.Fatalf("allocs %d != frees %d", s.Allocs, s.Frees)
	}
	if s.HeapUsed != 0 {
		t.Fatalf("HeapUsed = %d after freeing everything", s.HeapUsed)
	}
}

func BenchmarkArenaAllocFree64(b *testing.B) {
	a := NewArena()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			r, _ := a.Alloc(64)
			a.Free(r)
		}
	})
}

func BenchmarkNaiveAllocFree64(b *testing.B) {
	a := NewNaive()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			r, _ := a.Alloc(64)
			a.Free(r)
		}
	})
}

package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// TestKVHashedVariants: the Hashed mutation forms are exactly their
// hashing counterparts when fed Table.HashOfKV, including across a resize
// (the memoized hash only changes modulus).
func TestKVHashedVariants(t *testing.T) {
	tb, h := newKV(t, Config{Bins: 8, VariableKV: true, Resizable: true})
	defer h.Close()
	const n = 2000 // force several resizes from 8 bins
	keyOf := func(i int) []byte { return []byte(fmt.Sprintf("key-%d-with-some-length", i)) }
	for i := 0; i < n; i++ {
		k := keyOf(i)
		if err := h.InsertKVHashed(0, k, []byte{byte(i)}, tb.HashOfKV(0, k)); err != nil {
			t.Fatalf("InsertKVHashed %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		k := keyOf(i)
		if v, ok := h.GetKV(0, k); !ok || !bytes.Equal(v, []byte{byte(i)}) {
			t.Fatalf("GetKV %d = %x,%v", i, v, ok)
		}
	}
	if err := h.InsertKVHashed(0, keyOf(7), nil, tb.HashOfKV(0, keyOf(7))); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate InsertKVHashed: %v", err)
	}
	for i := 0; i < n; i += 2 {
		k := keyOf(i)
		if !h.DeleteKVHashed(0, k, tb.HashOfKV(0, k)) {
			t.Fatalf("DeleteKVHashed %d missed", i)
		}
	}
	for i := 0; i < n; i++ {
		_, ok := h.GetKV(0, keyOf(i))
		if want := i%2 == 1; ok != want {
			t.Fatalf("key %d present=%v want %v", i, ok, want)
		}
	}
	if h.DeleteKVHashed(0, keyOf(0), tb.HashOfKV(0, keyOf(0))) {
		t.Fatal("double delete succeeded")
	}
}

// TestKVPipelineMutations: the pipeline's Put barriers the in-flight reads
// (completions fire before the mutation applies), replaces an existing
// pair and inserts an absent one.
func TestKVPipelineMutations(t *testing.T) {
	_, h := newKV(t, Config{Bins: 64, VariableKV: true, Resizable: true})
	defer h.Close()
	var completed []string
	pl := h.KVPipeline(KVPipelineOpts{Window: 8, OnComplete: func(g *KVGet) {
		completed = append(completed, fmt.Sprintf("%s=%s,%v", g.Key, g.Value, g.OK))
	}})
	defer pl.Close()

	for k, v := range map[string]string{"a": "1", "b": "2"} {
		if err := h.InsertKV(0, []byte(k), []byte(v)); err != nil {
			t.Fatalf("InsertKV(%s): %v", k, err)
		}
	}
	// Enqueue reads, then mutate: the mutation must flush them first.
	pl.Get(0, []byte("a"))
	pl.Get(0, []byte("b"))
	if err := pl.Put(0, []byte("a"), []byte("one")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if len(completed) != 2 || completed[0] != "a=1,true" || completed[1] != "b=2,true" {
		t.Fatalf("reads did not complete before the mutation: %q", completed)
	}
	if v, ok := h.GetKV(0, []byte("a")); !ok || string(v) != "one" {
		t.Fatalf("after Put: %q,%v", v, ok)
	}
	// Put on an absent key inserts.
	if err := pl.Put(0, []byte("c"), []byte("3")); err != nil {
		t.Fatalf("Put insert: %v", err)
	}
	if v, ok := h.GetKV(0, []byte("c")); !ok || string(v) != "3" {
		t.Fatalf("Put-inserted: %q,%v", v, ok)
	}
}

package dlht_test

import (
	"errors"
	"net"
	"strings"
	"testing"

	dlht "repro"
	"repro/internal/server"
)

// startServers launches n in-process dlht-servers over fresh tables and
// returns their addresses.
func startServers(t testing.TB, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		s := server.New(dlht.MustNew(dlht.Config{Bins: 1 << 10, Resizable: true}), server.Options{})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go s.Serve(ln)
		t.Cleanup(func() { s.Close() })
		addrs[i] = ln.Addr().String()
	}
	return addrs
}

// driveStore runs the same program against any Store: sync ops, sentinel
// behavior, then a pipelined burst.
func driveStore(t *testing.T, s dlht.Store) {
	t.Helper()
	if _, inserted, err := s.Insert(7, 70); err != nil || !inserted {
		t.Fatalf("Insert = inserted=%v err=%v", inserted, err)
	}
	if existing, inserted, err := s.Insert(7, 71); err != nil || inserted || existing != 70 {
		t.Fatalf("dup Insert = (%d,%v,%v)", existing, inserted, err)
	}
	if v, ok, err := s.Get(7); err != nil || !ok || v != 70 {
		t.Fatalf("Get = (%d,%v,%v)", v, ok, err)
	}
	if prev, ok, err := s.Put(7, 72); err != nil || !ok || prev != 70 {
		t.Fatalf("Put = (%d,%v,%v)", prev, ok, err)
	}
	if prev, ok, err := s.Delete(7); err != nil || !ok || prev != 72 {
		t.Fatalf("Delete = (%d,%v,%v)", prev, ok, err)
	}

	var completions int
	var bad error
	p, err := s.Pipe(dlht.PipeOpts{Window: 8, OnComplete: func(c dlht.Completion) {
		completions++
		if c.Kind == dlht.OpInsert && c.Err != nil && !errors.Is(c.Err, dlht.ErrExists) {
			bad = c.Err
		}
		if c.Kind == dlht.OpGet && c.OK && c.Value != c.Key*2 {
			bad = errors.New("get observed a foreign value")
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	for k := uint64(0); k < n; k++ {
		if err := p.Insert(k, k*2); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < n; k++ {
		if err := p.Get(k); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if bad != nil {
		t.Fatal(bad)
	}
	if completions != 2*n {
		t.Fatalf("completions = %d, want %d", completions, 2*n)
	}
}

// TestStoreFacade runs the same driver against all three backends through
// the public facade only: a local table, one dlht-server, and a 3-shard
// cluster.
func TestStoreFacade(t *testing.T) {
	t.Run("local", func(t *testing.T) {
		tbl := dlht.MustNew(dlht.Config{Bins: 1 << 10, Resizable: true})
		s, err := tbl.Store()
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		driveStore(t, s)
	})
	t.Run("remote", func(t *testing.T) {
		addrs := startServers(t, 1)
		s, err := dlht.Open("tcp://" + addrs[0])
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		driveStore(t, s)
	})
	t.Run("cluster", func(t *testing.T) {
		addrs := startServers(t, 3)
		s, err := dlht.Open("cluster:" + strings.Join(addrs, ","))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if n := s.(*dlht.Cluster).NumShards(); n != 3 {
			t.Fatalf("NumShards = %d", n)
		}
		driveStore(t, s)
	})
}

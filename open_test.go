package dlht_test

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"

	dlht "repro"
	core "repro/internal/core"
	"repro/internal/server"
)

// serveTable exposes a fresh table (and a named Allocator table "users")
// over a loopback listener and returns the address.
func serveTable(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(core.MustNew(core.Config{Bins: 1 << 10, Resizable: true}), server.Options{})
	if err := s.AddTable("users", core.MustNew(core.Config{Bins: 1 << 10, Resizable: true})); err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	t.Cleanup(func() { s.Close() })
	return ln.Addr().String()
}

// roundTrip drives the minimal Store contract through s.
func roundTrip(t *testing.T, s dlht.Store) {
	t.Helper()
	if _, inserted, err := s.Insert(7, 70); err != nil || !inserted {
		t.Fatalf("Insert = inserted=%v err=%v", inserted, err)
	}
	if v, ok, err := s.Get(7); err != nil || !ok || v != 70 {
		t.Fatalf("Get = (%d,%v,%v)", v, ok, err)
	}
	if prev, ok, err := s.Put(7, 71); err != nil || !ok || prev != 70 {
		t.Fatalf("Put = (%d,%v,%v)", prev, ok, err)
	}
	if prev, ok, err := s.Delete(7); err != nil || !ok || prev != 71 {
		t.Fatalf("Delete = (%d,%v,%v)", prev, ok, err)
	}
}

func TestOpenMem(t *testing.T) {
	for _, spec := range []string{"mem:", "mem"} {
		s, err := dlht.Open(spec, dlht.WithConfig(dlht.Config{Bins: 1 << 10, Resizable: true}))
		if err != nil {
			t.Fatalf("Open(%q): %v", spec, err)
		}
		roundTrip(t, s)
		s.Close()
	}
}

func TestOpenTCP(t *testing.T) {
	addr := serveTable(t)

	s, err := dlht.Open("tcp://" + addr)
	if err != nil {
		t.Fatalf("Open default table: %v", err)
	}
	roundTrip(t, s)
	s.Close()

	// A table named in the spec path selects it; the concrete type is the
	// full client.
	s, err = dlht.Open("tcp://" + addr + "/users")
	if err != nil {
		t.Fatalf("Open named table: %v", err)
	}
	if _, ok := s.(*dlht.Client); !ok {
		t.Fatalf("tcp Open returned %T, want *dlht.Client", s)
	}
	roundTrip(t, s)
	s.Close()

	// An unknown table surfaces the transport sentinel through the wrap.
	if _, err := dlht.Open("tcp://" + addr + "/nope"); !errors.Is(err, dlht.ErrUnknownTable) {
		t.Fatalf("unknown table: %v, want ErrUnknownTable", err)
	}
}

func TestOpenCluster(t *testing.T) {
	a, b := serveTable(t), serveTable(t)
	s, err := dlht.Open("cluster:"+a+","+b, dlht.WithClusterOpts(dlht.ClusterOpts{VNodes: 8}))
	if err != nil {
		t.Fatalf("Open cluster: %v", err)
	}
	defer s.Close()
	if _, ok := s.(*dlht.Cluster); !ok {
		t.Fatalf("cluster Open returned %T, want *dlht.Cluster", s)
	}
	for k := uint64(1); k <= 64; k++ {
		if _, inserted, err := s.Insert(k, k*10); err != nil || !inserted {
			t.Fatalf("Insert %d: inserted=%v err=%v", k, inserted, err)
		}
	}
	for k := uint64(1); k <= 64; k++ {
		if v, ok, err := s.Get(k); err != nil || !ok || v != k*10 {
			t.Fatalf("Get %d = (%d,%v,%v)", k, v, ok, err)
		}
	}
}

// TestOpenClusterOpensLazily: a cluster: backend opens its members on
// first use, so a down member is a per-op retryable failure, never an
// Open error. With one of three members dead at R=2 W=1 every key keeps a
// live replica and every op succeeds; with every member dead at R=1 Open
// still succeeds and the first Get fails retryably within the retry
// budget.
func TestOpenClusterOpensLazily(t *testing.T) {
	const dead = "127.0.0.1:1"
	a, b := serveTable(t), serveTable(t)
	s, err := dlht.Open("cluster:"+a+","+b+","+dead, dlht.WithReplicas(2, 1))
	if err != nil {
		t.Fatalf("Open with one dead member: %v", err)
	}
	defer s.Close()
	const n = 2000
	for k := uint64(1); k <= n; k++ {
		if _, inserted, err := s.Insert(k, k*10); err != nil || !inserted {
			t.Fatalf("Insert %d: inserted=%v err=%v", k, inserted, err)
		}
	}
	for k := uint64(1); k <= n; k++ {
		if v, ok, err := s.Get(k); err != nil || !ok || v != k*10 {
			t.Fatalf("Get %d = (%d,%v,%v)", k, v, ok, err)
		}
	}

	s, err = dlht.Open("cluster:" + dead)
	if err != nil {
		t.Fatalf("Open with every member dead: %v", err)
	}
	defer s.Close()
	start := time.Now()
	_, _, err = s.Get(1)
	if !server.IsRetryable(err) {
		t.Fatalf("Get on a dead cluster = %v, want a retryable error", err)
	}
	// DefaultRetry: three backoffs capped at 250ms each, plus the dials.
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("Get on a dead cluster took %v, beyond the retry budget", el)
	}
}

// TestOpenClusterReplicated: WithReplicas/WithRetry through the spec
// entry point — with R = W = 3 over three shards every write lands
// everywhere, so reads survive any single backend vanishing.
func TestOpenClusterReplicated(t *testing.T) {
	a, b, c := serveTable(t), serveTable(t), serveTable(t)
	s, err := dlht.Open("cluster:"+a+","+b+","+c,
		dlht.WithReplicas(3, 3),
		dlht.WithRetry(dlht.RetryPolicy{Max: 2}))
	if err != nil {
		t.Fatalf("Open replicated cluster: %v", err)
	}
	defer s.Close()
	for k := uint64(1); k <= 64; k++ {
		if _, inserted, err := s.Insert(k, k*10); err != nil || !inserted {
			t.Fatalf("Insert %d: inserted=%v err=%v", k, inserted, err)
		}
	}
	for k := uint64(1); k <= 64; k++ {
		if v, ok, err := s.Get(k); err != nil || !ok || v != k*10 {
			t.Fatalf("Get %d = (%d,%v,%v)", k, v, ok, err)
		}
	}
	// The duplicate-Insert contract holds through replication: the
	// existing value, inserted=false, nil error.
	if v, inserted, err := s.Insert(1, 999); err != nil || inserted || v != 10 {
		t.Fatalf("duplicate Insert = (%d,%v,%v), want (10,false,nil)", v, inserted, err)
	}
	// The facade's retry classification: table refusals are terminal,
	// transport deaths are retryable.
	if dlht.IsRetryable(dlht.ErrExists) {
		t.Fatal("IsRetryable(ErrExists) = true, want false")
	}
	if !dlht.IsRetryable(io.EOF) {
		t.Fatal("IsRetryable(io.EOF) = false, want true")
	}
}

func TestOpenWAL(t *testing.T) {
	dir := t.TempDir()
	cfg := dlht.Config{Bins: 1 << 10, Resizable: true}

	s, err := dlht.Open("wal:"+dir, dlht.WithConfig(cfg))
	if err != nil {
		t.Fatalf("Open wal: %v", err)
	}
	ds, ok := s.(*dlht.DurableStore)
	if !ok {
		t.Fatalf("wal Open returned %T, want *dlht.DurableStore", s)
	}
	for k := uint64(1); k <= 32; k++ {
		if _, inserted, err := s.Insert(k, k); err != nil || !inserted {
			t.Fatalf("Insert %d: inserted=%v err=%v", k, inserted, err)
		}
	}
	if ds.Log() == nil {
		t.Fatal("DurableStore.Log is nil")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen recovers everything acknowledged before Close.
	rs, err := dlht.Open("wal:"+dir, dlht.WithConfig(cfg))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer rs.Close()
	r := rs.(*dlht.DurableStore)
	if n := r.RecoverStats().Records; n != 32 {
		t.Fatalf("recovered %d records, want 32", n)
	}
	for k := uint64(1); k <= 32; k++ {
		if v, ok, _ := r.Get(k); !ok || v != k {
			t.Fatalf("recovered Get %d = (%d,%v)", k, v, ok)
		}
	}
}

func TestOpenBadSpecs(t *testing.T) {
	for _, spec := range []string{
		"", "bogus:", "memcache:", "tcp://", "cluster:", "wal:",
		"udp://host:1", "relative/path",
	} {
		if _, err := dlht.Open(spec); !errors.Is(err, dlht.ErrBadSpec) {
			t.Fatalf("Open(%q) = %v, want ErrBadSpec", spec, err)
		}
	}
	// A well-formed spec whose backend fails must NOT be ErrBadSpec, and
	// must keep the dial error visible to errors.As.
	_, err := dlht.Open("tcp://127.0.0.1:1")
	if err == nil || errors.Is(err, dlht.ErrBadSpec) {
		t.Fatalf("dial-refused Open: %v", err)
	}
	var nerr *net.OpError
	if !errors.As(err, &nerr) {
		t.Fatalf("dial error lost through the wrap: %v", err)
	}
}

func TestStatusErr(t *testing.T) {
	cases := []struct {
		s    dlht.Status
		want error
	}{
		{dlht.StatusOK, nil},
		{dlht.StatusNotFound, nil},
		{dlht.StatusExists, dlht.ErrExists},
		{dlht.StatusFull, dlht.ErrFull},
		{dlht.StatusWrongMode, dlht.ErrWrongMode},
		{dlht.StatusBusy, dlht.ErrBusy},
		{dlht.StatusUnknownTable, dlht.ErrUnknownTable},
		{dlht.StatusBadVersion, dlht.ErrBadVersion},
		{dlht.StatusBadRequest, dlht.ErrBadRequest},
	}
	for _, c := range cases {
		if got := dlht.StatusErr(c.s); !errors.Is(got, c.want) {
			t.Fatalf("StatusErr(%v) = %v, want %v", c.s, got, c.want)
		}
	}
}

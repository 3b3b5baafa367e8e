package wal_test

import (
	"net"
	"testing"
	"time"

	core "repro/internal/core"
	"repro/internal/resp"
	"repro/internal/server"
	"repro/internal/wal"
)

// The binary client's case of the KV conformance script. It lives beside
// TestKVConformance rather than in its step list because it needs a real
// server — this package's internal tests cannot import one — and a server
// owns a RAM table's deadline index on the real clock, so the one wait
// below is real (and one-sided: waiting longer can only expose the defect,
// never hide correct behaviour).
//
// The script: `SET k v PX 30` over RESP, then a binary delete + insert of
// k. The insert makes a new pair with no TTL; the deadline the SET left
// must go with the pair it belonged to. Past the old deadline the pair is
// still there for both protocols, and a restarted durable server — whose
// replay always cleared the deadline on the insert record — agrees with
// the one that kept running.
func TestKVConformanceBinary(t *testing.T) {
	cfg := core.Config{
		Mode: core.Allocator, Bins: 1 << 10, Resizable: true,
		VariableKV: true, Namespaces: true, EpochGC: true, MaxThreads: 64,
	}
	for _, front := range []string{"resp-ram", "resp-durable"} {
		t.Run(front, func(t *testing.T) {
			dir := t.TempDir()
			// serve brings the front up (reopening dir for the durable
			// one) and returns its two clients and its teardown.
			serve := func() (*resp.Client, *server.Client, func()) {
				var ds *wal.Store
				s := server.New(core.MustNew(cfg), server.Options{})
				if front == "resp-durable" {
					var err error
					if ds, err = wal.Open(dir, cfg, wal.Options{SnapshotBytes: -1}); err != nil {
						t.Fatal(err)
					}
					if err := s.AddDurable(server.DefaultTable, ds); err != nil {
						t.Fatal(err)
					}
				}
				bln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				rln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				go s.Serve(bln)
				go s.ServeRESP(rln)
				bc, err := server.DialV2(bln.Addr().String(), server.ClientOpts{})
				if err != nil {
					t.Fatal(err)
				}
				rc, err := resp.Dial(rln.Addr().String())
				if err != nil {
					t.Fatal(err)
				}
				return rc, bc, func() {
					rc.Close()
					bc.Close()
					s.Close()
					if ds != nil {
						if err := ds.Close(); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			// The pair must be k=w with no deadline, over both protocols.
			check := func(when string, rc *resp.Client, bc *server.Client) {
				t.Helper()
				if v, ok, err := bc.GetKV(0, []byte("k")); err != nil || !ok || string(v) != "w" {
					t.Errorf("%s: binary GetKV(k) = (%q,%v,%v), want w", when, v, ok, err)
				}
				if r, err := rc.Do("GET", "k"); err != nil || string(r.Bulk) != "w" {
					t.Errorf("%s: GET k = (%+v,%v), want w", when, r, err)
				}
				if r, err := rc.Do("PTTL", "k"); err != nil || r.Int != -1 {
					t.Errorf("%s: PTTL k = (%+v,%v), want -1", when, r, err)
				}
			}

			rc, bc, stop := serve()
			// The binary connection is up before RESP sets the first TTL.
			if _, _, err := bc.GetKV(0, []byte("k")); err != nil {
				t.Fatal(err)
			}
			if r, err := rc.Do("SET", "k", "v", "PX", "30"); err != nil || r.Text() != "OK" {
				t.Fatalf("SET k v PX 30 = (%+v,%v)", r, err)
			}
			if err := bc.InsertKV(0, []byte("k"), []byte("x")); err == nil {
				t.Error("binary InsertKV of a live key succeeded, want ErrExists")
			}
			if ok, err := bc.DeleteKV(0, []byte("k")); err != nil || !ok {
				t.Fatalf("binary DeleteKV(k) = (%v,%v)", ok, err)
			}
			if err := bc.InsertKV(0, []byte("k"), []byte("w")); err != nil {
				t.Fatalf("binary InsertKV(k): %v", err)
			}
			check("before the old deadline", rc, bc)
			time.Sleep(40 * time.Millisecond)
			check("past the old deadline", rc, bc)
			stop()
			if front == "resp-durable" {
				rc, bc, stop = serve()
				check("after restart", rc, bc)
				stop()
			}
		})
	}
}

// Quickstart: the core DLHT API — Insert/Get/Put/Delete on a Handle, the
// streaming Pipeline — and the backend-independent Store surface: the
// same demo function runs unmodified against an in-process table, a
// dlht-server over TCP (protocol v2), and a 3-shard consistent-hashed
// cluster.
package main

import (
	"fmt"
	"log"
	"net"
	"strings"

	dlht "repro"
	"repro/internal/server"
)

// demo drives any Store: sync ops first, then a pipelined burst whose
// completions arrive in enqueue order. This function does not know — and
// cannot tell, except by latency — whether the table is local, behind one
// socket, or sharded across three servers.
func demo(name string, s dlht.Store) {
	if _, inserted, err := s.Insert(42, 1000); err != nil || !inserted {
		log.Fatalf("%s: insert: inserted=%v err=%v", name, inserted, err)
	}
	if existing, inserted, _ := s.Insert(42, 2000); !inserted {
		fmt.Printf("%s: duplicate insert rejected, existing value %d\n", name, existing)
	}
	if v, ok, _ := s.Get(42); ok {
		fmt.Printf("%s: Get(42) = %d\n", name, v)
	}
	old, _, _ := s.Put(42, 4242)
	fmt.Printf("%s: Put(42) replaced %d\n", name, old)
	if v, ok, _ := s.Delete(42); ok {
		fmt.Printf("%s: Delete(42) returned %d\n", name, v)
	}

	// The pipelined surface: enqueue a burst, completions fire in order
	// (per shard — and therefore per key — on a cluster).
	hits := 0
	p, err := s.Pipe(dlht.PipeOpts{OnComplete: func(c dlht.Completion) {
		if c.Kind == dlht.OpGet && c.OK {
			hits++
		}
	}})
	if err != nil {
		log.Fatal(err)
	}
	for k := uint64(0); k < 1000; k++ {
		p.Insert(k, k*3)
	}
	for k := uint64(0); k < 1000; k++ {
		p.Get(k)
	}
	if err := p.Close(); err != nil {
		log.Fatalf("%s: pipe: %v", name, err)
	}
	fmt.Printf("%s: pipelined 2000 ops, %d get hits\n", name, hits)
}

// serve starts an in-process dlht-server over a fresh table on a loopback
// port and returns its address.
func serve() string {
	s := server.New(dlht.MustNew(dlht.Config{Bins: 1 << 12, Resizable: true}), server.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go s.Serve(ln)
	return ln.Addr().String()
}

func main() {
	// The Handle API: per-goroutine access to an in-process table.
	table := dlht.MustNew(dlht.Config{Bins: 1 << 16, Resizable: true})
	h := table.MustHandle()
	if _, err := h.Insert(1, 10); err != nil {
		log.Fatal(err)
	}
	if v, ok := h.Get(1); ok {
		fmt.Println("handle: Get(1) =", v)
	}
	h.Delete(1)

	// The streaming Pipeline under the Store surface, on the raw Handle
	// (§3.3): completions fire one prefetch window behind the newest
	// enqueue.
	pipe := h.Pipeline(dlht.PipelineOpts{OnComplete: func(op *dlht.Op) {
		if op.Kind == dlht.OpGet && op.OK {
			fmt.Printf("handle pipeline: Get(%d)=%d\n", op.Key, op.Result)
		}
	}})
	pipe.Insert(2, 20)
	pipe.Get(2)
	pipe.Flush()

	// One API, three backends.
	local, err := table.Store()
	if err != nil {
		log.Fatal(err)
	}
	demo("local", local)
	local.Close()

	remote, err := dlht.Open("tcp://" + serve())
	if err != nil {
		log.Fatal(err)
	}
	demo("remote", remote)
	remote.Close()

	shards := []string{serve(), serve(), serve()}
	sharded, err := dlht.Open("cluster:" + strings.Join(shards, ","))
	if err != nil {
		log.Fatal(err)
	}
	demo("cluster", sharded)
	clu := sharded.(*dlht.Cluster) // the concrete type, for the membership view
	for i := 0; i < clu.NumShards(); i++ {
		fmt.Printf("cluster: shard %d is %s\n", i, clu.Names()[i])
	}
	clu.Close()

	st := table.Stats()
	fmt.Printf("local table stats: bins=%d occupancy=%.1f%%\n", st.Bins, st.Occupancy*100)
}

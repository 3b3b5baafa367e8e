package server

import (
	"fmt"
	"sync"
	"testing"

	core "repro/internal/core"
)

// benchServer starts a prepopulated server for the pipeline benchmarks.
func benchServer(b *testing.B, keys uint64) *Server {
	b.Helper()
	s := startServer(b, core.Config{Bins: keys*2/3 + 64, Resizable: true, MaxThreads: 256}, Options{})
	cl := dialT(b, s)
	reqs := make([]Request, 0, 1024)
	resps := make([]Response, 1024)
	for k := uint64(0); k < keys; k += 1024 {
		reqs = reqs[:0]
		for i := k; i < k+1024 && i < keys; i++ {
			reqs = append(reqs, Request{Op: OpInsert, Key: i, Value: i})
		}
		if err := cl.Do(reqs, resps[:len(reqs)]); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

// BenchmarkPipelinedGets measures end-to-end loopback throughput of GET
// pipelines at several depths — the knob that trades per-request syscall
// cost against batched execution on the server.
func BenchmarkPipelinedGets(b *testing.B) {
	const keys = 1 << 16
	s := benchServer(b, keys)
	for _, depth := range []int{1, 16, 64} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			cl := dialT(b, s)
			reqs := make([]Request, depth)
			resps := make([]Response, depth)
			b.ResetTimer()
			for n := 0; n < b.N; n += depth {
				for i := range reqs {
					reqs[i] = Request{Op: OpGet, Key: uint64(n+i) % keys}
				}
				if err := cl.Do(reqs, resps); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPipelinedMixed is the 50/50 GET/PUT mix at depth 64.
func BenchmarkPipelinedMixed(b *testing.B) {
	const keys = 1 << 16
	s := benchServer(b, keys)
	cl := dialT(b, s)
	const depth = 64
	reqs := make([]Request, depth)
	resps := make([]Response, depth)
	b.ResetTimer()
	for n := 0; n < b.N; n += depth {
		for i := range reqs {
			k := uint64(n+i) % keys
			if i%2 == 0 {
				reqs[i] = Request{Op: OpGet, Key: k}
			} else {
				reqs[i] = Request{Op: OpPut, Key: k, Value: k + 1}
			}
		}
		if err := cl.Do(reqs, resps); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelinedGetKV is binary GetKV over loopback at depth 64 on a kv
// table larger than the LLC: 2^20 pairs of an 11-byte key — past the 8
// bytes a slot word holds, so the full compare needs the block — and a
// 96-byte value, ~180 MB of bins and arena. What a lookup costs beside the
// wire is the bin miss and the block miss, and whether the second is
// hidden behind a prefetch. Allocations include the client's, which copies
// each value out.
func BenchmarkPipelinedGetKV(b *testing.B) {
	const (
		bits  = 20
		keys  = 1 << bits
		depth = 64
	)
	s := startServer(b, core.Config{
		Mode: core.Allocator, Bins: keys / 2, Resizable: true,
		VariableKV: true, EpochGC: true, MaxThreads: 8,
	}, Options{})
	// key formats "key-%07d" into dst without fmt's allocation.
	key := func(dst []byte, i int) []byte {
		dst = append(dst[:0], "key-0000000"...)
		for j := len(dst) - 1; i > 0; j, i = j-1, i/10 {
			dst[j] = byte('0' + i%10)
		}
		return dst
	}
	h := s.Table(DefaultTable).MustHandle()
	var kbuf [16]byte
	val := make([]byte, 96)
	for i := 0; i < keys; i++ {
		if err := h.InsertKV(0, key(kbuf[:0], i), val); err != nil {
			b.Fatal(err)
		}
	}
	h.Close()
	b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
		cl := dialT(b, s)
		var outs [depth]reply
		r := uint64(1)
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n += depth {
			for i := range outs {
				r = r*6364136223846793005 + 1442695040888963407 // uniform over every key
				if err := enqueueKV(cl, KVRequest{Op: OpGetKV, Key: key(kbuf[:0], int(r>>(64-bits)))}, &outs[i]); err != nil {
					b.Fatal(err)
				}
			}
			if err := cl.recvThrough(cl.head - 1); err != nil {
				b.Fatal(err)
			}
			if outs[0].Status != StatusOK {
				b.Fatalf("GetKV: %v", outs[0].Status)
			}
		}
	})
}

// BenchmarkServerSyncConns is the many-small-clients regime: conns
// synchronous connections, each with exactly ONE request in flight, so
// every op executes alone on its connection's handle. The table is sized
// out of cache so the per-op DRAM latency is actually present.
func BenchmarkServerSyncConns(b *testing.B) {
	const keys = 1 << 19
	s := benchServer(b, keys)
	for _, conns := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("conns=%d", conns), func(b *testing.B) {
			// Closed explicitly below (not via dialT's cleanup):
			// calibration reruns this function, and stale connections
			// would hold handles and goroutines into later runs.
			clients := make([]*Client, conns)
			for i := range clients {
				cl, err := DialV2(s.Addr().String(), ClientOpts{})
				if err != nil {
					b.Fatal(err)
				}
				clients[i] = cl
			}
			b.ResetTimer()
			var wg sync.WaitGroup
			per := b.N / conns
			for c := 0; c < conns; c++ {
				quota := per
				if c == 0 {
					quota += b.N % conns
				}
				wg.Add(1)
				go func(c, quota int, cl *Client) {
					defer wg.Done()
					for i := 0; i < quota; i++ {
						k := (uint64(c)*2654435761 + uint64(i)*0x9e3779b9) % keys
						if _, ok, err := cl.Get(k); err != nil || !ok {
							b.Errorf("Get(%d) = ok=%v err=%v", k, ok, err)
							return
						}
					}
				}(c, quota, clients[c])
			}
			wg.Wait()
			b.StopTimer()
			for _, cl := range clients {
				cl.Close()
			}
		})
	}
}

// BenchmarkEncodeDecode isolates the protocol codec cost.
func BenchmarkEncodeDecode(b *testing.B) {
	buf := make([]byte, 0, ReqSize)
	r := Request{Op: OpPut, Key: 123456789, Value: 987654321}
	for i := 0; i < b.N; i++ {
		buf = AppendRequest(buf[:0], r)
		q, err := DecodeRequest(buf)
		if err != nil || q.Key != r.Key {
			b.Fatal("codec broken")
		}
	}
}

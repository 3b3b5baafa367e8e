package server

import (
	"sync"
	"testing"

	core "repro/internal/core"
	"repro/internal/engine"
	"repro/internal/wal"
)

// pairedLog is a durable table's redo log shared by two connections. It
// holds each fixed op between its apply and its append until the other
// connection's next op has applied too, so both ops of a pair apply
// before either is logged: the widest window two writers of a key open.
// Every fixed op a connection completes is logged, so the two
// connections' calls pair up one to one.
type pairedLog struct {
	engine.WAL
	mu   sync.Mutex
	wait chan struct{} // the first of a pair waits here; nil between pairs
}

func (l *pairedLog) LogFixed(h *core.Handle, op *core.Op) (uint64, error) {
	l.mu.Lock()
	if ch := l.wait; ch != nil {
		l.wait = nil
		l.mu.Unlock()
		close(ch)
	} else {
		ch = make(chan struct{})
		l.wait = ch
		l.mu.Unlock()
		<-ch
	}
	return l.WAL.LogFixed(h, op)
}

// lockstepConn is a scriptConn whose peer sends one chunk per round. Once
// a chunk is consumed, the engine idles before the next read — every op of
// the chunk applied, logged, synced and answered — so Read reports ready
// and waits for the next chunk; a closed next ends the stream.
type lockstepConn struct {
	scriptConn
	next  chan []byte
	ready chan struct{}
}

func (c *lockstepConn) Read(b []byte) (int, error) {
	if len(c.in) == 0 {
		c.ready <- struct{}{}
		c.in = <-c.next
	}
	return c.scriptConn.Read(b)
}

// TestDurableTwoConnsRecoverServed: two binary connections on one durable
// table write the same key in lockstep rounds — an insert, puts, and a
// delete and re-insert halfway, 16 frames each per round — with each pair
// of their ops applied before either is logged, and a restart recovers
// exactly what the table served after every round.
func TestDurableTwoConnsRecoverServed(t *testing.T) {
	const keys, perRound = 3000, 16
	dir := t.TempDir()
	cfg := core.Config{Bins: 1 << 10, Resizable: true}
	ds, err := wal.Open(dir, cfg, wal.Options{SnapshotBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	s := New(core.MustNew(core.Config{Bins: 64}), Options{})
	if err := s.AddDurable("dur", ds); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.walLogs[ds.Table()] = &pairedLog{WAL: s.walLogs[ds.Table()]}
	s.mu.Unlock()

	conns := make([]*lockstepConn, 2)
	var wg sync.WaitGroup
	for w := range conns {
		c := &lockstepConn{
			scriptConn: scriptConn{in: helloFrame(t, "dur"), chunk: 1 << 20},
			next:       make(chan []byte), ready: make(chan struct{}),
		}
		conns[w] = c
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.serveConn(c)
		}()
	}
	h := ds.Table().MustHandle()
	type served struct {
		val uint64
		ok  bool
	}
	want := make([]served, keys)
	for k := 0; k <= keys; k++ {
		for _, c := range conns {
			<-c.ready
		}
		if k > 0 {
			want[k-1].val, want[k-1].ok = h.Get(uint64(k - 1))
		}
		for w, c := range conns {
			if k == keys {
				close(c.next)
				continue
			}
			var round []byte
			for i := uint64(0); i < perRound; i++ {
				op := OpPut
				switch i {
				case 0, 9:
					op = OpInsert
				case 8:
					op = OpDelete
				}
				round = AppendRequest(round, Request{Op: op, Key: uint64(k), Value: uint64(k)<<8 | uint64(w)<<4 | i})
			}
			c.next <- round
		}
	}
	wg.Wait()
	h.Close()
	s.Close()
	for w, c := range conns {
		if got, want := c.out.Len(), HelloRespSize+keys*perRound*RespSize; got != want {
			t.Fatalf("connection %d: %d reply bytes; want %d", w, got, want)
		}
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := wal.Open(dir, cfg, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	diverged := 0
	for k, w := range want {
		v, ok, _ := r.Get(uint64(k))
		if ok != w.ok || ok && v != w.val {
			if diverged < 3 {
				t.Logf("key %d: served %#x,%v; recovered %#x,%v", k, w.val, w.ok, v, ok)
			}
			diverged++
		}
	}
	if diverged != 0 {
		t.Fatalf("%d of %d keys recovered a value other than the one served", diverged, keys)
	}
}

package ackbuf

import (
	"bytes"
	"errors"
	"math/rand"
	"net"
	"testing"
	"time"
)

// fakeLog is a redo log whose group commit completes the moment it is
// waited for, unless the wait is the one chosen to fail.
type fakeLog struct {
	synced uint64
	calls  int
	failAt int // 1-based SyncWait call that fails; 0 = never
}

var errSync = errors.New("injected sync failure")

func (l *fakeLog) SyncWait(seq uint64) error {
	l.calls++
	if l.calls == l.failAt {
		return errSync
	}
	if seq > l.synced {
		l.synced = seq
	}
	return nil
}

// fakeConn checks every socket write against the model of what was
// appended: the bytes continue exactly where the previous write stopped,
// and the log has synced the highest sequence any of them depends on.
type fakeConn struct {
	net.Conn // nil: only the methods below are reached
	t        *testing.T
	log      *fakeLog
	model    []byte   // every byte appended, in order
	needs    []uint64 // needs[i]: log sequence byte i acknowledges
	written  int
	writes   int
	failAt   int // 1-based Write call that fails; 0 = never
	deadline bool
}

var errWrite = errors.New("injected write failure")

func (c *fakeConn) SetWriteDeadline(time.Time) error { c.deadline = true; return nil }

func (c *fakeConn) Write(p []byte) (int, error) {
	c.writes++
	if c.writes == c.failAt {
		return 0, errWrite
	}
	end := c.written + len(p)
	if end > len(c.model) || !bytes.Equal(p, c.model[c.written:end]) {
		c.t.Fatalf("write %d: %d bytes at offset %d are not the next appended bytes", c.writes, len(p), c.written)
	}
	for i := c.written; i < end; i++ {
		if c.needs[i] > c.log.synced {
			c.t.Fatalf("write %d: byte %d acknowledges sequence %d but only %d is synced", c.writes, i, c.needs[i], c.log.synced)
		}
	}
	c.written = end
	return len(p), nil
}

// TestWriterProperty is the record of the hazard this package removes: a
// bufio.Writer handed a reply larger than its free space pushes older,
// possibly unsynced bytes to the socket mid-Write. Random frame sizes from
// one byte to four times the buffer, random sequence bumps and flushes,
// and injected sync and write failures must never get a byte onto the
// socket ahead of its sequence, out of order, twice, or after an error.
func TestWriterProperty(t *testing.T) {
	const size = 256
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		log := &fakeLog{}
		conn := &fakeConn{t: t, log: log}
		switch seed % 3 {
		case 1:
			log.failAt = 1 + rng.Intn(40)
		case 2:
			conn.failAt = 1 + rng.Intn(40)
		}
		w := New(conn, log, size, time.Second)
		var seq uint64
		var failed error
		writesAtFailure := 0
		for op := 0; op < 400; op++ {
			if rng.Intn(3) == 0 {
				seq++
				w.NeedSync(seq)
			}
			frame := make([]byte, 1+rng.Intn(4*size))
			rng.Read(frame)
			if failed == nil {
				// Bytes appended after the failure are dropped, so only
				// these can ever be written.
				conn.model = append(conn.model, frame...)
				for range frame {
					conn.needs = append(conn.needs, seq)
				}
			}
			w.Commit(append(w.Buf(), frame...))
			if rng.Intn(8) == 0 {
				w.Flush()
			}
			if failed == nil && w.Err() != nil {
				failed = w.Err()
				if failed != errSync && failed != errWrite {
					t.Fatalf("seed %d: unexpected error %v", seed, failed)
				}
				// Later syncs and writes would succeed: if the writer
				// tried any, the count below gives it away.
				conn.failAt, log.failAt = 0, 0
				writesAtFailure = conn.writes
			}
			if failed != nil && w.Err() != failed {
				t.Fatalf("seed %d: sticky error changed from %v to %v", seed, failed, w.Err())
			}
			if cap(w.buf) > Retain {
				t.Fatalf("seed %d: buffer capacity %d kept past the retain bound", seed, cap(w.buf))
			}
		}
		w.Flush()
		if failed != nil && conn.writes != writesAtFailure {
			t.Fatalf("seed %d: %d socket writes after the first error", seed, conn.writes-writesAtFailure)
		}
		if failed == nil && conn.written != len(conn.model) {
			t.Fatalf("seed %d: %d of %d bytes reached the socket", seed, conn.written, len(conn.model))
		}
		if conn.writes > 0 && !conn.deadline {
			t.Fatalf("seed %d: socket written without a write deadline", seed)
		}
	}
}

// TestWriterOversizedReply: a reply far larger than the buffer goes out
// whole, behind its sync, and the buffer then returns to its configured
// size instead of pinning the large allocation for the connection's life.
func TestWriterOversizedReply(t *testing.T) {
	log := &fakeLog{}
	conn := &fakeConn{t: t, log: log}
	w := New(conn, log, 4096, 0)
	small := []byte("ack of an unsynced write")
	big := bytes.Repeat([]byte{0xab}, Retain+1)
	conn.model = append(append(conn.model, small...), big...)
	conn.needs = make([]uint64, len(conn.model))
	for i := range conn.needs {
		conn.needs[i] = 7
	}
	w.NeedSync(7)
	w.Commit(append(w.Buf(), small...))
	if conn.writes != 0 {
		t.Fatal("a small reply below the threshold reached the socket before Flush")
	}
	w.Commit(append(w.Buf(), big...))
	if conn.written != len(conn.model) || log.synced != 7 {
		t.Fatalf("wrote %d of %d bytes with synced=%d", conn.written, len(conn.model), log.synced)
	}
	if cap(w.buf) != 4096 {
		t.Fatalf("buffer capacity %d after an oversized reply, want 4096", cap(w.buf))
	}
}

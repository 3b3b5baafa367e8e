package engine

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/ackbuf"
)

// chunked delivers src at most n bytes per Read.
type chunked struct {
	src []byte
	n   int
}

func (c *chunked) Read(b []byte) (int, error) {
	if len(c.src) == 0 {
		return 0, io.EOF
	}
	m := copy(b[:min(len(b), c.n)], c.src)
	c.src = c.src[m:]
	return m, nil
}

// TestServeBufferFallsBackAfterOversizedFrame: the read buffer grows to a
// frame larger than it, exactly as far as the parser asks, and is set back
// to its initial size once that frame is consumed, so one outsized request
// does not pin a connection-lifetime buffer. Frames here are a length byte
// 'B' (a 4 MiB frame) or 'b' (an 8-byte frame), then filler.
func TestServeBufferFallsBackAfterOversizedFrame(t *testing.T) {
	const size, big = 4 << 10, 4 << 20
	var in []byte
	for _, f := range []struct {
		c byte
		n int
	}{{'b', 8}, {'B', big}, {'b', 8}, {'b', 8}} {
		in = append(in, bytes.Repeat([]byte{f.c}, f.n)...)
	}
	var frames, idles, bigCap, lastCap int
	err := Serve(&chunked{in, 64 << 10}, size, func() error { idles++; return nil },
		func(buf []byte) (used, need int, err error) {
			for used < len(buf) {
				n := 8
				if buf[used] == 'B' {
					n = big
				}
				if len(buf)-used < n {
					return used, n, nil
				}
				if n == big {
					bigCap = cap(buf[used:])
				}
				used += n
				frames++
			}
			lastCap = cap(buf)
			return used, 1, nil
		})
	if err != io.EOF {
		t.Fatalf("Serve ended %v, want EOF", err)
	}
	if frames != 4 {
		t.Fatalf("parsed %d frames, want 4", frames)
	}
	if bigCap < big || bigCap > 2*big {
		t.Fatalf("the 4 MiB frame was read into a %d-byte buffer", bigCap)
	}
	if lastCap > ackbuf.Retain {
		t.Fatalf("after the oversized frame the buffer holds %d bytes, over the %d retain bound", lastCap, ackbuf.Retain)
	}
	if idles == 0 {
		t.Fatal("Serve read without the idle step")
	}
}

package resp_test

import (
	"bytes"
	"io"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	core "repro/internal/core"
	"repro/internal/expiry"
	"repro/internal/resp"
)

// scriptConn is a connection whose peer sent a fixed byte stream, chunk
// bytes per write, and then closed its side; every reply is kept. Only
// Read and Write are used: the connections it is given set no idle
// timeout.
type scriptConn struct {
	net.Conn
	in    []byte
	chunk int
	out   bytes.Buffer
}

func (c *scriptConn) Read(b []byte) (int, error) {
	if len(c.in) == 0 {
		return 0, io.EOF
	}
	n := copy(b[:min(len(b), c.chunk)], c.in)
	c.in = c.in[n:]
	return n, nil
}

func (c *scriptConn) Write(b []byte) (int, error) { return c.out.Write(b) }

// multibulk encodes args as a RESP array of bulk strings.
func multibulk(args ...string) string {
	var b strings.Builder
	b.WriteString("*" + strconv.Itoa(len(args)) + "\r\n")
	for _, a := range args {
		b.WriteString("$" + strconv.Itoa(len(a)) + "\r\n" + a + "\r\n")
	}
	return b.String()
}

// TestRESPSplitReadsReplyTheSame: a pipelined stream of multibulk and
// inline commands, a bulk larger than the read buffer and an MSET gets the
// same reply bytes, on a fresh table, whether it arrives in one write or
// one byte per write.
func TestRESPSplitReadsReplyTheSame(t *testing.T) {
	big := strings.Repeat("b", 10<<10)
	stream := multibulk("SET", "a", "1") +
		"GET a\r\n" +
		multibulk("SET", "big", big) +
		multibulk("MSET", "k1", "v1", "k2", "v2", "k3", big) +
		"MGET k1 k2 nope\r\n" +
		multibulk("GET", "big") +
		"\r\n" + // an empty inline line: skipped
		multibulk("GET", "k3") +
		"INCR n\r\nDEL a k1\r\nEXISTS a k2\r\n" +
		multibulk("QUIT") +
		"PING\r\n" // after QUIT: never answered
	play := func(chunk int) []byte {
		tbl := core.MustNew(kvConfig())
		h := tbl.MustHandle()
		defer h.Close()
		c := &scriptConn{in: []byte(stream), chunk: chunk}
		resp.Serve(c, resp.ServeOpts{Table: tbl, Handle: h, Expiry: expiry.New(nil), ReadBuffer: 1 << 10})
		return c.out.Bytes()
	}
	whole, split := play(len(stream)), play(1)
	if !bytes.Equal(whole, split) {
		t.Fatalf("one write replies %d bytes, byte writes %d, and they differ", len(whole), len(split))
	}
	want := "+OK\r\n$1\r\n1\r\n+OK\r\n+OK\r\n*3\r\n$2\r\nv1\r\n$2\r\nv2\r\n$-1\r\n" +
		"$10240\r\n" + big + "\r\n$10240\r\n" + big + "\r\n:1\r\n:2\r\n:1\r\n+OK\r\n"
	if string(whole) != want {
		t.Fatalf("replies %.200q, want %.200q", whole, want)
	}
}

// TestRESPStreamingRepliesBeforeSplitBulk is the RESP twin of the binary
// TestStreamingRepliesBeforeTailDecode: replies to the commands that
// arrived whole reach the client while the server waits on a command split
// inside a bulk.
func TestRESPStreamingRepliesBeforeSplitBulk(t *testing.T) {
	tbl := core.MustNew(kvConfig())
	s := startRESP(t, tbl, expiry.New(nil), nil)
	c, err := net.Dial("tcp", s.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	head := "SET a 1\r\nGET a\r\n*3\r\n$3\r\nSET\r\n$1\r\nb\r\n$10\r\nhel"
	if _, err := c.Write([]byte(head)); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(30 * time.Second))
	want := "+OK\r\n$1\r\n1\r\n"
	got := make([]byte, len(want))
	if _, err := io.ReadFull(c, got); err != nil || string(got) != want {
		t.Fatalf("before the bulk's tail: read %q, %v; want %q", got, err, want)
	}
	if _, err := c.Write([]byte("lo12345\r\nGET b\r\n")); err != nil {
		t.Fatal(err)
	}
	want = "+OK\r\n$10\r\nhello12345\r\n"
	got = make([]byte, len(want))
	if _, err := io.ReadFull(c, got); err != nil || string(got) != want {
		t.Fatalf("after the bulk's tail: read %q, %v; want %q", got, err, want)
	}
}

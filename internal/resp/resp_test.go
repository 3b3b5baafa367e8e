package resp

import (
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
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

// decodeAll runs the command parser on engine.Serve's read loop over input
// delivered chunk bytes per read into a size-byte buffer, and returns the
// commands (nil for an empty one) and the loop's ending error. Every call
// is checked against the engine.Parser contract: never consume past the
// buffer, and ask for more than is buffered whenever nothing was consumed.
func decodeAll(t testing.TB, input string, chunk, size int) ([][]string, error) {
	var p parser
	var out [][]string
	err := engine.Serve(&chunked{[]byte(input), chunk}, size, func() error { return nil },
		func(buf []byte) (used, need int, err error) {
			for {
				n, need, err := p.next(buf[used:])
				switch {
				case err != nil:
					return used, 0, err
				case n > len(buf)-used:
					t.Fatalf("consumed %d of %d buffered bytes", n, len(buf)-used)
				case n == 0 && need <= len(buf)-used:
					t.Fatalf("consumed nothing of %d buffered bytes but asked for %d", len(buf)-used, need)
				case n == 0:
					return used, need, nil
				}
				used += n
				var args []string
				for _, a := range p.args {
					args = append(args, string(a))
				}
				out = append(out, args)
			}
		})
	return out, err
}

func readAll(t *testing.T, input string) [][]string {
	t.Helper()
	out, err := decodeAll(t, input, len(input)+1, 0)
	if err != io.EOF {
		t.Fatalf("decode: %v", err)
	}
	return out
}

func TestReadCommandMultibulk(t *testing.T) {
	cmds := readAll(t, "*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$5\r\nhello\r\n*1\r\n$4\r\nPING\r\n")
	if len(cmds) != 2 {
		t.Fatalf("got %d commands", len(cmds))
	}
	if got := strings.Join(cmds[0], " "); got != "SET k hello" {
		t.Fatalf("cmd 0 = %q", got)
	}
	if got := strings.Join(cmds[1], " "); got != "PING" {
		t.Fatalf("cmd 1 = %q", got)
	}
}

func TestReadCommandInline(t *testing.T) {
	cmds := readAll(t, "PING\r\nSET  k   v\r\n\r\nGET k\n")
	want := [][]string{{"PING"}, {"SET", "k", "v"}, nil, {"GET", "k"}}
	if len(cmds) != len(want) {
		t.Fatalf("got %d commands, want %d: %v", len(cmds), len(want), cmds)
	}
	for i := range want {
		if strings.Join(cmds[i], " ") != strings.Join(want[i], " ") {
			t.Fatalf("cmd %d = %v, want %v", i, cmds[i], want[i])
		}
	}
}

// TestReadCommandRawRealloc: a bulk far larger than the read buffer,
// arriving over many reads, grows the buffer under the arguments decoded
// before it; they must survive the move.
func TestReadCommandRawRealloc(t *testing.T) {
	big := strings.Repeat("x", 100_000)
	in := "*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$" + "100000" + "\r\n" + big + "\r\n"
	cmds, err := decodeAll(t, in, 1000, 512)
	if err != io.EOF {
		t.Fatal(err)
	}
	if len(cmds) != 1 || cmds[0][0] != "SET" || cmds[0][1] != "k" || cmds[0][2] != big {
		t.Fatal("bulk spanning reallocation corrupted earlier args")
	}
}

func TestReadCommandProtocolErrors(t *testing.T) {
	for _, in := range []string{
		"*abc\r\n",
		"*-1\r\n",
		"*2\r\n$3\r\nGET\r\n:5\r\n",
		"*1\r\n$-2\r\n",
		"*1\r\n$99999999999999999999\r\n",
		"*1\r\n$3\r\nabcX\r\n", // bad bulk terminator
		"*70000\r\n",           // over MaxArgs
		"*1\r\n$" + strings.Repeat("1", 70) + "\r\n", // bulk header over 64 bytes
		strings.Repeat("a", MaxInline+2),             // unterminated inline over MaxInline
	} {
		for _, chunk := range []int{1, len(in)} {
			_, err := decodeAll(t, in, chunk, 0)
			if !errors.Is(err, ErrProtocol) {
				t.Fatalf("input %.40q in %d-byte reads: err = %v, want a protocol error", in, chunk, err)
			}
		}
	}
}

// TestParseLinearOneByteAtATime: a command of 2^16 arguments fed one byte
// per read is decoded in work linear in its length. Each read hands the
// parser the whole pending command; a parser that rescanned it from its
// start every time would do ~2^16 header parses per byte, ~10^11 steps in
// all — minutes, against milliseconds for a resumed scan.
func TestParseLinearOneByteAtATime(t *testing.T) {
	var b strings.Builder
	b.WriteString("*65536\r\n")
	for i := 0; i < 1<<16; i++ {
		b.WriteString("$1\r\nx\r\n")
	}
	start := time.Now()
	cmds, err := decodeAll(t, b.String(), 1, 0)
	if err != io.EOF {
		t.Fatal(err)
	}
	if len(cmds) != 1 || len(cmds[0]) != 1<<16 {
		t.Fatalf("decoded %d commands", len(cmds))
	}
	if d := time.Since(start); d > 20*time.Second {
		t.Fatalf("%d bytes one at a time took %v: the parser rescans", b.Len(), d)
	}
}

func TestParseInt(t *testing.T) {
	cases := []struct {
		in string
		n  int64
		ok bool
	}{
		{"0", 0, true}, {"123", 123, true}, {"-9", -9, true},
		{"+7", 7, true}, {"", 0, false}, {"-", 0, false},
		{"12a", 0, false}, {"9223372036854775807", 1<<63 - 1, true},
		{"9223372036854775808", 0, false}, {"99999999999999999999", 0, false},
	}
	for _, c := range cases {
		n, ok := parseInt([]byte(c.in))
		if ok != c.ok || (ok && n != c.n) {
			t.Fatalf("parseInt(%q) = %d,%v; want %d,%v", c.in, n, ok, c.n, c.ok)
		}
	}
}

// FuzzRESPDecode: the command parser never panics on hostile bytes, keeps
// the engine.Parser contract (decodeAll checks it on every call), and
// decodes the same commands, ending the same way, whether the bytes arrive
// in one read or one byte per read.
func FuzzRESPDecode(f *testing.F) {
	f.Add([]byte("*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n"))
	f.Add([]byte("PING\r\n"))
	f.Add([]byte("*1\r\n$4\r\nPING\r\n"))
	f.Add([]byte("*-1\r\n"))
	f.Add([]byte("$5\r\nhello\r\n"))
	f.Add([]byte("*2\r\n$3\r\nGET\r\n$70000\r\n"))
	f.Add([]byte("\r\n\n*0\r\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		whole, werr := decodeAll(t, string(data), len(data)+1, 512)
		split, serr := decodeAll(t, string(data), 1, 512)
		if errors.Is(werr, ErrProtocol) != errors.Is(serr, ErrProtocol) {
			t.Fatalf("whole read ends %v, byte reads end %v", werr, serr)
		}
		if len(whole) != len(split) {
			t.Fatalf("whole read decodes %d commands, byte reads %d", len(whole), len(split))
		}
		for i := range whole {
			if strings.Join(whole[i], "\x00") != strings.Join(split[i], "\x00") {
				t.Fatalf("command %d: %q vs %q", i, whole[i], split[i])
			}
		}
	})
}

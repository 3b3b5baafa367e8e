package resp

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strconv"
)

// Client is a minimal pipelined RESP2 client: Send queues commands,
// Flush pushes them, Recv decodes one reply. It exists so the load
// generator, the smoke script's fallback path, tests and the example can
// drive the RESP listener without an external Redis client library. Not
// safe for concurrent use; run one Client per goroutine. A pipelined
// GET/SET stream allocates nothing: commands are staged in, and bulk
// replies decoded into, buffers the client owns.
type Client struct {
	c       net.Conn
	br      *bufio.Reader
	bw      *bufio.Writer
	Pending int // replies queued but not yet received

	out  []byte // Send's staging: one whole command
	bulk []byte // backs the last reply's Bulk
}

// Dial connects a Client to a RESP listener.
func Dial(addr string) (*Client, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(c), nil
}

// NewClient wraps an established connection.
func NewClient(c net.Conn) *Client {
	return &Client{
		c:  c,
		br: bufio.NewReaderSize(c, 64<<10),
		bw: bufio.NewWriterSize(c, 64<<10),
	}
}

// Close closes the underlying connection.
func (cl *Client) Close() error { return cl.c.Close() }

// appendLen appends a type byte, a decimal and CRLF: an array or bulk
// length line.
func appendLen(b []byte, typ byte, n int) []byte {
	return append(strconv.AppendInt(append(b, typ), int64(n), 10), '\r', '\n')
}

// Send queues one command as a multibulk array without flushing. It is
// assembled in the client's staging buffer, so the arguments never escape
// (through a type parameter shared with SendStr they would).
func (cl *Client) Send(args ...[]byte) error {
	b := appendLen(cl.out[:0], '*', len(args))
	for _, a := range args {
		b = append(append(appendLen(b, '$', len(a)), a...), '\r', '\n')
	}
	return cl.queue(b)
}

// SendStr is Send over string arguments.
func (cl *Client) SendStr(args ...string) error {
	b := appendLen(cl.out[:0], '*', len(args))
	for _, a := range args {
		b = append(append(appendLen(b, '$', len(a)), a...), '\r', '\n')
	}
	return cl.queue(b)
}

func (cl *Client) queue(cmd []byte) error {
	cl.out = cmd
	if _, err := cl.bw.Write(cmd); err != nil {
		return err
	}
	cl.Pending++
	return nil
}

// Flush pushes every queued command to the server.
func (cl *Client) Flush() error { return cl.bw.Flush() }

// Reply is one decoded server reply. A top-level Bulk aliases a buffer
// the Client reuses: consume or copy it before the next Recv (or Do) on
// that client. Bulks inside an Array are the reply's own.
type Reply struct {
	Kind  byte    // '+', '-', ':', '$', '*'
	Str   string  // simple string or error text
	Int   int64   // integer reply
	Bulk  []byte  // bulk payload; nil when Null
	Null  bool    // null bulk ($-1) or null array (*-1)
	Array []Reply // array elements
}

// IsErr reports whether the reply is an error.
func (r *Reply) IsErr() bool { return r.Kind == '-' }

// Text renders the reply's payload as a string (bulk, simple or integer).
func (r *Reply) Text() string {
	switch r.Kind {
	case '$':
		return string(r.Bulk)
	case ':':
		return strconv.FormatInt(r.Int, 10)
	default:
		return r.Str
	}
}

// Recv decodes the next reply, invalidating the previous one's Bulk; it
// must be matched 1:1 with Sends.
func (cl *Client) Recv() (Reply, error) {
	if cl.Pending > 0 {
		cl.Pending--
	}
	return cl.readReply(0)
}

// Do sends one command and waits for its reply (flushing the queue).
func (cl *Client) Do(args ...string) (Reply, error) {
	if err := cl.SendStr(args...); err != nil {
		return Reply{}, err
	}
	if err := cl.Flush(); err != nil {
		return Reply{}, err
	}
	return cl.Recv()
}

func (cl *Client) readLine() ([]byte, error) {
	line, err := cl.br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	if n := len(line); n >= 2 && line[n-2] == '\r' {
		return line[:n-2], nil
	}
	return line[:len(line)-1], nil
}

func (cl *Client) readReply(depth int) (Reply, error) {
	if depth > 8 {
		return Reply{}, fmt.Errorf("resp: reply nesting too deep")
	}
	line, err := cl.readLine()
	if err != nil {
		return Reply{}, err
	}
	if len(line) == 0 {
		return Reply{}, fmt.Errorf("resp: empty reply line")
	}
	r := Reply{Kind: line[0]}
	body := line[1:]
	switch r.Kind {
	case '+', '-':
		// The two status lines a pipelined stream is made of cost nothing.
		switch string(body) {
		case "OK":
			r.Str = "OK"
		case "PONG":
			r.Str = "PONG"
		default:
			r.Str = string(body)
		}
		return r, nil
	case ':':
		n, ok := parseInt(body)
		if !ok {
			return Reply{}, fmt.Errorf("resp: bad integer reply")
		}
		r.Int = n
		return r, nil
	case '$':
		n, ok := parseInt(body)
		if !ok || n > MaxBulk {
			return Reply{}, fmt.Errorf("resp: bad bulk length")
		}
		if n < 0 {
			r.Null = true
			return r, nil
		}
		if depth > 0 {
			r.Bulk = make([]byte, n) // one of several in an array
		} else {
			if cl.bulk == nil || int64(cap(cl.bulk)) < n {
				cl.bulk = make([]byte, n, max(n, 64))
			}
			r.Bulk = cl.bulk[:n]
		}
		if _, err := io.ReadFull(cl.br, r.Bulk); err != nil {
			return Reply{}, err
		}
		if _, err := cl.readLine(); err != nil {
			return Reply{}, err
		}
		return r, nil
	case '*':
		n, ok := parseInt(body)
		if !ok || n > MaxArgs {
			return Reply{}, fmt.Errorf("resp: bad array length")
		}
		if n < 0 {
			r.Null = true
			return r, nil
		}
		r.Array = make([]Reply, 0, n)
		for i := int64(0); i < n; i++ {
			el, err := cl.readReply(depth + 1)
			if err != nil {
				return Reply{}, err
			}
			r.Array = append(r.Array, el)
		}
		return r, nil
	default:
		return Reply{}, fmt.Errorf("resp: unknown reply type %q", r.Kind)
	}
}

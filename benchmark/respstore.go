package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"

	core "repro/internal/core"
	"repro/internal/resp"
)

// respStore drives a RESP listener through the same Pipe surface the other
// backends offer, so one run loop and one checker serve every workload.
// Keys travel as 16 hex bytes, values as 64 bytes: the 8-byte value word
// repeated. Get is GET, Insert is SET, Put is SET with every second one
// carrying EX 3600 so the expiry index is on the write path.
//
// SET replies carry no previous value, so Put and Insert completions
// report the word that was written; only Gets observe the table.
type respStore struct {
	cl   *resp.Client
	puts uint64
}

const (
	respKeyLen = 16
	respValLen = 64
)

func dialRESP(addr string) (*respStore, error) {
	cl, err := resp.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &respStore{cl: cl}, nil
}

func newRESPStore(c net.Conn) *respStore { return &respStore{cl: resp.NewClient(c)} }

func (s *respStore) Close() error { return s.cl.Close() }

func (s *respStore) Pipe(opts core.PipeOpts) (core.Pipe, error) {
	w := opts.Window
	if w <= 0 {
		w = 16
	}
	return &respPipe{s: s, w: w, onc: opts.OnComplete, q: make([]respOp, 1)}, nil
}

type respOp struct {
	kind core.OpKind
	key  uint64
	val  uint64
}

type respPipe struct {
	s   *respStore
	w   int
	onc func(core.Completion)

	q          []respOp // ring of in-flight ops, power-of-two capacity
	head, tail int      // absolute enqueue and completion counts
	flushed    int      // enqueues known to be on the wire

	kbuf [respKeyLen]byte
	vbuf [respValLen]byte
}

var (
	respGET = []byte("GET")
	respSET = []byte("SET")
	respEX  = []byte("EX")
	respTTL = []byte("3600")
)

func respKey(dst *[respKeyLen]byte, k uint64) []byte {
	const hex = "0123456789abcdef"
	for i := respKeyLen - 1; i >= 0; i-- {
		dst[i] = hex[k&15]
		k >>= 4
	}
	return dst[:]
}

func respVal(dst *[respValLen]byte, v uint64) []byte {
	for i := 0; i < respValLen; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], v)
	}
	return dst[:]
}

// respWord decodes a value, rejecting anything respVal did not produce.
func respWord(b []byte) (uint64, bool) {
	if len(b) != respValLen {
		return 0, false
	}
	v := binary.LittleEndian.Uint64(b)
	for i := 8; i < respValLen; i += 8 {
		if binary.LittleEndian.Uint64(b[i:]) != v {
			return 0, false
		}
	}
	return v, true
}

func (p *respPipe) enq(kind core.OpKind, key, val uint64) error {
	cl := p.s.cl
	k := respKey(&p.kbuf, key)
	var err error
	switch kind {
	case core.OpGet:
		err = cl.Send(respGET, k)
	case core.OpInsert:
		err = cl.Send(respSET, k, respVal(&p.vbuf, val))
	case core.OpPut:
		p.s.puts++
		if p.s.puts%2 == 0 {
			err = cl.Send(respSET, k, respVal(&p.vbuf, val), respEX, respTTL)
		} else {
			err = cl.Send(respSET, k, respVal(&p.vbuf, val))
		}
	default:
		return errors.New("respStore: op not supported")
	}
	if err != nil {
		return err
	}
	if p.head-p.tail == len(p.q) {
		next := make([]respOp, len(p.q)*2)
		for i := p.tail; i < p.head; i++ {
			next[i&(len(next)-1)] = p.q[i&(len(p.q)-1)]
		}
		p.q = next
	}
	p.q[p.head&(len(p.q)-1)] = respOp{kind, key, val}
	p.head++
	if p.head-p.tail > p.w {
		return p.recvOne()
	}
	return nil
}

// recvOne completes the oldest in-flight op, flushing first only when its
// command is still in the write buffer (one flush per window, as the
// binary client's Pipe does).
func (p *respPipe) recvOne() error {
	if p.flushed <= p.tail {
		if err := p.s.cl.Flush(); err != nil {
			return err
		}
		p.flushed = p.head
	}
	r, err := p.s.cl.Recv()
	if err != nil {
		return err
	}
	o := p.q[p.tail&(len(p.q)-1)]
	p.tail++
	cp := core.Completion{Kind: o.kind, Key: o.key}
	switch {
	case r.IsErr():
		cp.Err = fmt.Errorf("resp: %s", r.Str)
	case o.kind == core.OpGet:
		if !r.Null {
			if cp.Value, cp.OK = respWord(r.Bulk); !cp.OK {
				cp.Err = errors.New("resp: malformed value")
			}
		}
	default:
		cp.OK = r.Kind == '+' && r.Str == "OK"
		cp.Value = o.val
	}
	if p.onc != nil {
		p.onc(cp)
	}
	return nil
}

func (p *respPipe) Get(key uint64) error         { return p.enq(core.OpGet, key, 0) }
func (p *respPipe) Put(key, val uint64) error    { return p.enq(core.OpPut, key, val) }
func (p *respPipe) Insert(key, val uint64) error { return p.enq(core.OpInsert, key, val) }
func (p *respPipe) Delete(key uint64) error      { return p.enq(core.OpDelete, key, 0) }

func (p *respPipe) Flush() error {
	for p.tail < p.head {
		if err := p.recvOne(); err != nil {
			return err
		}
	}
	return nil
}

func (p *respPipe) Close() error { return p.Flush() }

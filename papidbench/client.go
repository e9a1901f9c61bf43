package main

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// call is one request awaiting its reply. papid answers a
// connection's requests in order, so replies match calls FIFO.
type call struct {
	op   string
	span string    // span name when spans are on; default "wire.<OP>"
	due  time.Time // when the request was scheduled to be sent
	sent time.Time
	resp wire.Response
	at   time.Time // when the reply was decoded
	err  error     // transport failure: the reply never came
	// done runs on the connection's reader goroutine once the reply
	// (or the failure) is in; nil callers wait on ch instead.
	done func(*call)
	ch   chan struct{}
}

func (c *call) finish() {
	if c.done != nil {
		c.done(c)
	} else {
		close(c.ch)
	}
}

// errConnLost marks requests whose connection died before they were
// answered: evicted, or closed by papid ("reply queue jammed").
var errConnLost = errors.New("connection lost before reply")

// client is one generator connection to papid. A reader goroutine
// routes replies to their calls and asynchronous fan-out frames
// (SNAPSHOT, DELTA, DERIVED) to onFrame.
type client struct {
	nc      net.Conn
	codec   wire.Codec
	wmu     sync.Mutex
	buf     []byte
	pmu     sync.Mutex
	pending []*call // FIFO; guarded by pmu
	onFrame func(resp *wire.Response, at time.Time)
	frames  atomic.Int64
	// spans, when set, records a "wire.<OP>" span for every call
	// answered without a done callback (those record their own).
	spans   *spanRec
	lane    int
	closed  atomic.Bool
	dead    chan struct{}
	readErr error
}

// dial connects, says HELLO at protocol v4 (asking for the binary
// codec when binary is set), and starts the reader. onFrame, if not
// nil, receives every fan-out frame on the reader goroutine.
func dial(addr string, binary bool, onFrame func(*wire.Response, time.Time)) (*client, error) {
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	hello := wire.Request{Op: wire.OpHello, Version: wire.ProtocolVersion}
	if binary {
		hello.Codec = wire.CodecNameBinary
	}
	dec := wire.NewDecoder(nc)
	if err := wire.NewEncoder(nc).Encode(&hello); err != nil {
		nc.Close()
		return nil, fmt.Errorf("hello: %w", err)
	}
	var resp wire.Response
	_ = nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	if err := dec.Decode(&resp); err != nil {
		nc.Close()
		return nil, fmt.Errorf("hello reply: %w", err)
	}
	_ = nc.SetReadDeadline(time.Time{})
	if !resp.OK || resp.Protocol < wire.MinProtocolFilter {
		nc.Close()
		return nil, fmt.Errorf("hello refused: %+v", resp)
	}
	c := &client{nc: nc, codec: wire.CodecJSON, onFrame: onFrame, dead: make(chan struct{})}
	if binary {
		if resp.Codec != wire.CodecNameBinary {
			nc.Close()
			return nil, errors.New("papid declined the binary codec")
		}
		c.codec = wire.CodecBinary
		dec.SetCodec(wire.CodecBinary)
	}
	go c.readLoop(dec)
	return c, nil
}

func (c *client) readLoop(dec *wire.Decoder) {
	defer close(c.dead)
	for {
		resp := new(wire.Response)
		err := dec.Decode(resp)
		at := time.Now()
		if err != nil {
			c.readErr = err
			c.failPending()
			return
		}
		switch resp.Op {
		case wire.OpSnapshot, wire.OpDelta, wire.OpDerived:
			c.frames.Add(1)
			if c.onFrame != nil {
				c.onFrame(resp, at)
			}
			continue
		}
		c.pmu.Lock()
		var cl *call
		if len(c.pending) > 0 {
			cl = c.pending[0]
			c.pending[0] = nil
			c.pending = c.pending[1:]
		}
		c.pmu.Unlock()
		if cl == nil {
			c.readErr = fmt.Errorf("unsolicited %s frame: %s", resp.Op, resp.Error)
			c.nc.Close()
			c.failPending()
			return
		}
		cl.resp, cl.at = *resp, at
		if cl.done == nil {
			if cl.span == "" {
				cl.span = "wire." + cl.op
			}
			c.spans.add(cl.span, c.lane, cl.sent, at, -1)
		}
		cl.finish()
	}
}

// failPending fails every outstanding call after the reader stopped.
func (c *client) failPending() {
	c.pmu.Lock()
	p := c.pending
	c.pending = nil
	c.closed.Store(true)
	c.pmu.Unlock()
	for _, cl := range p {
		cl.err = errConnLost
		cl.at = time.Now()
		cl.finish()
	}
}

// send writes req and registers cl for its reply. A request on a dead
// connection fails at once through cl.
func (c *client) send(req *wire.Request, cl *call) {
	if cl.done == nil && cl.ch == nil {
		cl.ch = make(chan struct{})
	}
	cl.op = req.Op
	c.wmu.Lock()
	defer c.wmu.Unlock()
	cl.sent = time.Now()
	c.pmu.Lock()
	if c.closed.Load() {
		c.pmu.Unlock()
		cl.err, cl.at = errConnLost, time.Now()
		cl.finish()
		return
	}
	c.pending = append(c.pending, cl)
	c.pmu.Unlock()
	var err error
	c.buf, err = wire.AppendFrame(c.buf[:0], c.codec, req)
	if err == nil {
		_, err = c.nc.Write(c.buf)
	}
	if err != nil {
		// The reader notices the broken socket and fails cl with the
		// rest of the pending calls.
		c.nc.Close()
	}
}

// do sends req and waits for its reply.
func (c *client) do(req *wire.Request) (wire.Response, error) {
	cl := &call{due: time.Now()}
	c.send(req, cl)
	<-cl.ch
	if cl.err != nil {
		return wire.Response{}, cl.err
	}
	if !cl.resp.OK {
		return cl.resp, fmt.Errorf("%s: %s", req.Op, cl.resp.Error)
	}
	return cl.resp, nil
}

// pipeline sends reqs with at most window outstanding and returns the
// replies in order; the first failure is returned after all complete.
func (c *client) pipeline(reqs []wire.Request, window int) ([]wire.Response, error) {
	out := make([]wire.Response, len(reqs))
	calls := make([]*call, len(reqs))
	for i := range reqs {
		if i >= window {
			<-calls[i-window].ch
		}
		calls[i] = &call{due: time.Now()}
		c.send(&reqs[i], calls[i])
	}
	var first error
	for i, cl := range calls {
		<-cl.ch
		out[i] = cl.resp
		if first == nil {
			if cl.err != nil {
				first = cl.err
			} else if !cl.resp.OK {
				first = fmt.Errorf("%s: %s", reqs[i].Op, cl.resp.Error)
			}
		}
	}
	return out, first
}

// close shuts the connection and waits for the reader to exit.
func (c *client) close() {
	c.nc.Close()
	<-c.dead
}

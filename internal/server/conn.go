package server

import (
	"bufio"
	"log/slog"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry/tracing"
	"repro/internal/wire"
)

// frameKind says what an outbound frame is: a request reply or one of
// the three fan-out kinds, each with its own sent/dropped counters.
type frameKind uint8

const (
	kindReply frameKind = iota
	kindSnapshot
	kindDelta
	kindDerived
	numFrameKinds
)

func (k frameKind) String() string {
	return [numFrameKinds]string{"reply", "snapshot", "delta", "derived"}[k]
}

// frame is one pre-serialized outbound frame: the bytes on the wire,
// ready for a plain socket write. Fan-out frames are droppable and
// may share their payload with other connections' queues; request
// replies are not droppable — a client must never miss the answer to a
// request it is waiting on — and may carry a pooled buffer returned
// after the write.
type frame struct {
	payload []byte
	codec   wire.Codec
	kind    frameKind
	// owner is the subscriber a fan-out frame was delivered to (nil on
	// replies); dropping the frame marks a delta owner for re-keying.
	owner *subscriber
	// poolBuf, when non-nil, owns payload's backing array; the writer
	// returns it to framePool after the socket write. Only
	// single-owner reply frames set it.
	poolBuf *[]byte
	// shared, when non-nil, is the reference-counted fan-out buffer
	// backing payload; this frame holds one reference and release
	// drops it. Mutually exclusive with poolBuf.
	shared *sharedBuf
	// trace, when non-nil, carries a request trace whose "write" span
	// stays open until this frame is consumed: release ends the span
	// and finishes the trace, so a traced reply's duration includes
	// its queue wait and socket write.
	trace *traceDone
}

// traceDone defers a request trace's completion to whoever consumes
// its reply frame — the writer after the socket write, or any discard
// path (queue eviction, jam, closed queue). After handing one to a
// frame, the producing goroutine must not touch the trace again: the
// writer may finish and recycle it concurrently.
type traceDone struct {
	tr *tracing.Tracer
	t  *tracing.Trace
	sp tracing.SpanRef
}

func (td *traceDone) done() {
	td.t.EndSpan(td.sp)
	td.tr.Finish(td.t)
}

// framePool recycles reply-frame encode buffers. Replies are encoded
// at enqueue time and consumed exactly once by the connection's writer
// goroutine, so the buffer's lifetime is precisely enqueue→write.
var framePool = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

// release returns a frame's pooled reply buffer or drops its shared
// fan-out reference, whichever it holds. Every path that is done with
// a frame — socket write, queue eviction, jam, closed queue — calls
// it; a frame simply abandoned (e.g. left in the queue of an evicted
// connection) is never released and its buffer falls to the GC, which
// is a pool miss but never a reuse-while-referenced.
func (f *frame) release() {
	if f.poolBuf != nil {
		if cap(f.payload) <= maxPooledFrame {
			*f.poolBuf = f.payload[:0]
			framePool.Put(f.poolBuf)
		}
		f.poolBuf = nil
	}
	if f.shared != nil {
		f.shared.release()
		f.shared = nil
	}
	if f.trace != nil {
		f.trace.done()
		f.trace = nil
	}
}

// writeQueue is the bounded per-connection outbound frame queue,
// drained by exactly one writer goroutine per connection. It is the
// only queue a fan-out frame passes through between encode and
// socket, and push is the only place a frame is dropped: when the
// queue is full the oldest fan-out frame is evicted first, and a queue
// jammed with undroppable reply frames reports failure so the
// connection is evicted instead of wedging the server.
type writeQueue struct {
	mu   sync.Mutex
	cond *sync.Cond
	// buf is the fixed backing array, one slot per frame the bound
	// allows; frames is the queued window of it, oldest first. Pops
	// advance the window and push slides it back to the front, so a
	// queue never allocates after construction.
	buf    []frame
	frames []frame
	closed bool
	m      *metrics // drop accounting
}

func newWriteQueue(depth int, m *metrics) *writeQueue {
	q := &writeQueue{buf: make([]frame, depth), m: m}
	q.frames = q.buf[:0]
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push enqueues one frame. A full queue sheds its oldest fan-out frame,
// or the new one when every queued frame is a reply; either way the
// shed frame goes through drop. A keyframe (a SNAPSHOT to a delta
// subscriber) re-anchors its owner, so push clears the owner's needKey
// before shedding: only a clean enqueue leaves it clear, and a drop of
// any frame of the owner's, the keyframe included, sets it again. ok
// is false when the queue is closed or jammed with undroppable frames.
func (q *writeQueue) push(f frame) (ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		f.release()
		return false
	}
	if f.kind == kindSnapshot && f.owner.delta {
		f.owner.needKey.Store(false)
	}
	if len(q.frames) >= len(q.buf) {
		i := slices.IndexFunc(q.frames, func(g frame) bool { return g.kind != kindReply })
		switch {
		case i >= 0:
			q.drop(q.frames[i])
			q.frames = slices.Delete(q.frames, i, i+1)
		case f.kind != kindReply:
			q.drop(f) // every queued frame outranks the new one
			return true
		default:
			f.release()
			return false // jammed: replies cannot make progress
		}
	}
	if len(q.frames) == cap(q.frames) {
		n := copy(q.buf, q.frames)
		clear(q.buf[n:])
		q.frames = q.buf[:n]
	}
	q.frames = append(q.frames, f)
	q.cond.Signal()
	return true
}

// drop discards one fan-out frame under q.mu. The frame is counted
// once in its kind's dropped counter and once in write_drops, and a
// delta owner re-keys: the dropped frame may have been its keyframe.
func (q *writeQueue) drop(f frame) {
	q.m.dropped[f.kind].Inc()
	q.m.writeDrops.Inc()
	if f.owner.delta {
		f.owner.needKey.Store(true)
	}
	f.release()
}

// pop blocks until a frame is available; after close it drains the
// backlog, then reports done.
func (q *writeQueue) pop() (frame, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.frames) == 0 && !q.closed {
		q.cond.Wait()
	}
	return q.popLocked()
}

// tryPop dequeues without blocking — the writer uses it to batch every
// already-queued frame into one buffered flush.
func (q *writeQueue) tryPop() (frame, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.popLocked()
}

func (q *writeQueue) popLocked() (frame, bool) {
	if len(q.frames) == 0 {
		return frame{}, false
	}
	f := q.frames[0]
	q.frames[0] = frame{}
	q.frames = q.frames[1:]
	return f, true
}

// close stops accepting frames and wakes the writer; already-queued
// frames still drain.
func (q *writeQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

func (q *writeQueue) isClosed() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.closed
}

// len reports the frames currently queued — the scrape-time depth
// gauge's view.
func (q *writeQueue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.frames)
}

// conn is one client connection: a reader loop dispatching requests
// and a writer loop draining the bounded outbound queue, into which
// fan-out pushes its subscribers' frames directly. All socket writes
// funnel through the writer loop, so one write deadline governs them
// uniformly. Frames
// are serialized at enqueue time (replies) or at fan-out time
// (snapshots, shared across subscribers); the writer only moves bytes.
type conn struct {
	srv *Server
	nc  net.Conn
	q   *writeQueue

	// id is the per-server connection number; every structured log
	// line this connection emits carries it.
	id  uint64
	log *slog.Logger

	// codec is the negotiated frame encoding (wire.Codec); it flips
	// from JSON to binary exactly once, after the HELLO reply that
	// confirmed the upgrade was enqueued.
	codec   atomic.Uint32
	evicted atomic.Bool
	// version is the protocol version the peer announced at HELLO
	// (0 until then). It gates version-dependent reply content: STATS
	// histogram summaries go only to v3+ peers, so a v2 JSON client
	// never sees a field it does not know.
	version atomic.Int32

	// trc is the in-flight request's trace, set by handle around
	// dispatch so deep dispatch paths (PUBLISH fan-out) can hang stage
	// spans on it without changing the dispatch signature. Requests on
	// a connection are handled serially by the reader goroutine, so a
	// plain field suffices.
	trc *tracing.Trace

	mu   sync.Mutex
	subs []subRef
}

// codecNow reports the connection's negotiated codec.
func (c *conn) codecNow() wire.Codec {
	return wire.Codec(c.codec.Load())
}

// reqTrace is the in-flight request's trace. Nil-safe: tests drive
// dispatch without a conn, and tracing may be off.
func (c *conn) reqTrace() *tracing.Trace {
	if c == nil {
		return nil
	}
	return c.trc
}

// subRef ties one subscriber to the sessions it is registered on —
// several for a wildcard SUBSCRIBE — so teardown unregisters it
// everywhere.
type subRef struct {
	sessions []*session
	sub      *subscriber
}

func (s *Server) handle(nc net.Conn) {
	defer s.wg.Done()
	c := &conn{srv: s, nc: nc, q: newWriteQueue(s.cfg.WriteQueueDepth, s.m),
		id: s.nextConnID.Add(1)}
	c.log = s.slog.With("conn", c.id, "remote", nc.RemoteAddr().String())
	c.log.Debug("papid: connection open")
	s.connsMu.Lock()
	s.conns[c] = struct{}{}
	s.connsMu.Unlock()
	s.wg.Add(1)
	go c.writeLoop()
	defer c.teardown()

	dec := wire.NewDecoder(nc)
	for {
		if d := s.cfg.ReadIdleTimeout; d > 0 {
			nc.SetReadDeadline(time.Now().Add(d))
		}
		var req wire.Request
		if err := dec.Decode(&req); err != nil {
			switch {
			case wire.IsMalformed(err):
				// One bad frame must not kill the connection: reply
				// with an error frame and resume at the next boundary.
				s.m.resyncs.Inc()
				c.log.Warn("papid: malformed frame", "err", err)
				if !c.send(wire.Response{Op: wire.OpError, Error: err.Error()}) {
					return
				}
				if wire.IsFatalMalformed(err) {
					// Binary framing with a broken length prefix has no
					// resynchronization point: answer once, then cut the
					// connection loose cleanly (teardown drains the
					// ERROR frame before the socket closes).
					if c.evicted.CompareAndSwap(false, true) {
						s.m.evictions.Inc()
					}
					return
				}
				continue
			case wire.IsTimeout(err):
				if c.subscribing() {
					// A subscriber stream legitimately sends nothing:
					// the fan-out writes are its liveness, and the
					// write deadline evicts it if it stops reading.
					continue
				}
				c.evict("read idle", err)
				return
			}
			return // EOF or closed socket
		}
		// Service latency clock: decode done → reply enqueued. The
		// socket write happens on the writer goroutine; what this
		// histogram isolates is the dispatch cost itself, per op and
		// codec, so a regressed allocator solve or tsdb query shows up
		// under its own op instead of smearing into socket noise.
		t0 := time.Now()
		// Each valid request is a traced unit: dispatch and write spans
		// always; deep stage spans (PUBLISH history/fan-out/derive) hang
		// off c.trc. Only the ID is read after the frame is enqueued —
		// the writer goroutine finishes (and may recycle) the trace.
		// With tracing off t is nil, tid 0 and every span call a no-op.
		t := s.trc.Start("request", req.Op)
		tid := t.ID()
		t.AnnotateInt(tracing.NoSpan, "conn", int64(c.id))
		if req.Session != 0 {
			t.AnnotateInt(tracing.NoSpan, "session", int64(req.Session))
		}
		c.trc = t
		dsp := t.StartSpan(tracing.NoSpan, "dispatch")
		resp := s.dispatch(c, &req)
		t.EndSpan(dsp)
		c.trc = nil
		if !resp.OK && resp.Error != "" {
			t.SetError(resp.Error)
		}
		// The reply names its trace for v4+ peers only: older binary
		// decoders reject unknown presence bits, older JSON clients
		// reject unknown fields in strict harnesses.
		if c.version.Load() >= int32(wire.MinProtocolTrace) {
			resp.TraceID = tid
		}
		ok := c.sendTraced(resp, t, t.StartSpan(tracing.NoSpan, "write"))
		s.m.observeOp(req.Op, c.codecNow(), t0)
		if d := s.cfg.SlowOp; d > 0 {
			if elapsed := time.Since(t0); elapsed >= d {
				attrs := []any{"op", req.Op, "session", req.Session, "dur", elapsed.String()}
				if tid != 0 {
					attrs = append(attrs, "trace", tracing.FormatID(tid))
				}
				c.log.Warn("papid: slow op", attrs...)
				s.slowOps.record(req.Op, req.Session, elapsed.Nanoseconds(), tid)
			}
		}
		if !ok {
			return
		}
		if req.Op == wire.OpBye {
			return
		}
		if resp.Op == wire.OpHello && resp.Codec == wire.CodecNameBinary {
			// The upgrade confirmation was enqueued (in JSON, by the
			// send above); every frame from here on — ours and the
			// peer's — is binary. The peer cannot have pipelined binary
			// bytes earlier: it switches only after reading our reply.
			c.codec.Store(uint32(wire.CodecBinary))
			dec.SetCodec(wire.CodecBinary)
		}
	}
}

// writeLoop is the connection's single socket writer: it drains the
// outbound queue of pre-serialized frames, bounding each write by
// WriteTimeout, and batches every already-queued frame into one
// buffered flush so a burst of snapshots costs one syscall, not one
// per frame. A deadline trip or write error evicts the connection — a
// peer that stopped reading is cut loose rather than wedging a
// goroutine and unbounded memory behind it. Closing the socket on exit
// also unblocks the reader.
func (c *conn) writeLoop() {
	defer c.srv.wg.Done()
	defer c.nc.Close()
	bw := bufio.NewWriterSize(c.nc, 4096)
	for {
		f, ok := c.q.pop()
		if !ok {
			bw.Flush() // best-effort: the BYE reply of a clean teardown
			return
		}
		for {
			if d := c.srv.cfg.WriteTimeout; d > 0 {
				c.nc.SetWriteDeadline(time.Now().Add(d))
			}
			_, err := bw.Write(f.payload)
			if err == nil {
				c.srv.m.framesSent[f.codec].Inc()
				c.srv.m.bytesSent[f.codec].Add(uint64(len(f.payload)))
			}
			f.release()
			if err != nil {
				c.evict("write", err)
				return
			}
			if next, more := c.q.tryPop(); more {
				f = next
				continue
			}
			break
		}
		if err := bw.Flush(); err != nil {
			c.evict("write", err)
			return
		}
	}
}

// send serializes a reply frame with the connection's codec and
// enqueues it; replies are never dropped under pressure. false means
// the connection is closed or was evicted for jamming. The encode
// buffer is pooled: the writer returns it after the socket write.
func (c *conn) send(resp wire.Response) bool {
	return c.sendTraced(resp, nil, tracing.NoSpan)
}

// sendTraced is send carrying a request trace: the open write span wr
// rides the frame (traceDone) and whoever consumes the frame ends it
// and finishes the trace. The caller must not touch t after this
// returns — the writer goroutine may already have finished and
// recycled it. A nil t is plain send.
func (c *conn) sendTraced(resp wire.Response, t *tracing.Trace, wr tracing.SpanRef) bool {
	codec := c.codecNow()
	bp := framePool.Get().(*[]byte)
	payload, err := wire.AppendFrame((*bp)[:0], codec, &resp)
	if err != nil {
		*bp = (*bp)[:0]
		framePool.Put(bp)
		if t != nil {
			t.SetError("reply encode: " + err.Error())
			c.srv.trc.Finish(t)
		}
		c.evict("reply encode", err)
		return false
	}
	*bp = payload
	f := frame{payload: payload, codec: codec, poolBuf: bp}
	if t != nil {
		t.AnnotateInt(wr, "bytes", int64(len(payload)))
		f.trace = &traceDone{tr: c.srv.trc, t: t, sp: wr}
	}
	if c.q.push(f) {
		return true
	}
	if !c.q.isClosed() {
		c.evict("reply queue jammed", nil)
	}
	return false
}

// subscribing reports whether the connection holds live
// subscriptions, which exempts it from the read-idle deadline.
func (c *conn) subscribing() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.subs) > 0
}

// evict cuts the connection loose: the queue closes (stopping the
// writer), the socket closes (unblocking the reader), and the
// eviction is counted exactly once regardless of which side — reader
// deadline, writer deadline, or jammed queue — tripped first.
func (c *conn) evict(why string, err error) {
	if !c.evicted.CompareAndSwap(false, true) {
		return
	}
	c.srv.m.evictions.Inc()
	if wire.IsTimeout(err) {
		c.srv.m.deadlineTrips.Inc()
	}
	c.q.close()
	c.nc.Close()
	c.log.Warn("papid: evicting connection", "why", why, "err", err)
}

// teardown unregisters the connection and its subscribers and lets
// the writer drain its backlog (e.g. the BYE reply) before the socket
// closes.
func (c *conn) teardown() {
	c.srv.connsMu.Lock()
	delete(c.srv.conns, c)
	c.srv.connsMu.Unlock()
	c.q.close()
	c.mu.Lock()
	subs := c.subs
	c.subs = nil
	c.mu.Unlock()
	for _, ref := range subs {
		for _, sess := range ref.sessions {
			sess.removeSubscriber(ref.sub)
		}
	}
}

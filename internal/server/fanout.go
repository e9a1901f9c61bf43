package server

import (
	"fmt"
	"sync/atomic"

	"repro/internal/telemetry/tracing"
	"repro/internal/wire"
)

// appendFrameFn is wire.AppendFrame behind a seam so tests can force
// an encode failure and pin the negative-cache behavior.
var appendFrameFn = wire.AppendFrame

// encCache lazily serializes one response at most once per codec and
// hands out the shared bytes — the encode-once fan-out path. The
// buffers are pooled, reference-counted sharedBufs (tick.go): the
// cache holds one reference across the fan-out, each enqueued frame
// takes its own, and done() drops the cache's when the fan-out ends.
// A failed encode is negative-cached for the rest of the fan-out:
// logged and counted once, with every later subscriber on that codec
// just recording its dropped frame instead of re-attempting the
// encode and re-logging each tick.
type encCache struct {
	resp   *wire.Response
	shared [2]*sharedBuf // indexed by wire.Codec
	failed [2]bool

	// trc/parent, when trc is non-nil, wrap each first-per-codec encode
	// in an "encode" span (codec + byte count). Set only for detailed
	// (head-sampled) traces — encode spans on every tail-candidate tick
	// would be waste.
	trc    *tracing.Trace
	parent tracing.SpanRef
}

// get returns the encoded frame for codec, serializing on first use.
// ok is false when the encode failed (now or earlier this fan-out);
// the caller counts the drop for its frame kind. An ok buffer stays
// valid until done(); a caller enqueuing it must sb.ref() first.
func (e *encCache) get(s *Server, kind frameKind, codec wire.Codec) (sb *sharedBuf, ok bool) {
	if e.failed[codec] {
		return nil, false
	}
	if sb := e.shared[codec]; sb != nil {
		return sb, true
	}
	sb = newSharedBuf()
	var sp tracing.SpanRef = tracing.NoSpan
	if e.trc != nil {
		sp = e.trc.StartSpan(e.parent, "encode")
		e.trc.Annotate(sp, "codec", codec.String())
	}
	p, err := appendFrameFn(sb.buf[:0], codec, e.resp)
	if err != nil {
		if e.trc != nil {
			e.trc.Annotate(sp, "error", err.Error())
			e.trc.EndSpan(sp)
			e.trc.SetError(kind.String() + " encode failed")
		}
		sb.release()
		e.failed[codec] = true
		s.m.encodeFailures.Inc()
		s.slog.Error("papid: "+kind.String()+" encode failed",
			"codec", codec.String(), "session", e.resp.Session, "err", err)
		return nil, false
	}
	if e.trc != nil {
		e.trc.AnnotateInt(sp, "bytes", int64(len(p)))
		e.trc.EndSpan(sp)
	}
	sb.buf = p
	e.shared[codec] = sb
	return sb, true
}

// done drops the cache's own reference on every buffer it encoded.
// Call exactly once, after the fan-out loop that used the cache — a
// buffer no write queue took goes straight back to the pool.
func (e *encCache) done() {
	for i, sb := range e.shared {
		if sb != nil {
			sb.release()
			e.shared[i] = nil
		}
	}
}

// fanout serializes one snapshot at most once per codec in use and
// hands the shared bytes to every subscriber — the encode-once path.
// With N subscribers on one codec the tick pays for one Marshal, not
// N; the bytes are never mutated while shared, and the refcount on
// each buffer (see sharedBuf) returns it to the pool once the cache
// and every queue are done with it. Filtered and delta subscribers
// peel off to fanoutViews (filter.go), which applies the same
// encode-once discipline per distinct view; their scratch slice is
// pooled too — fan-out runs every tick for every session, so even
// small per-call allocations are worth retiring.
//
// t/parent thread the enclosing trace (tick or PUBLISH request) so
// detailed traces record per-codec encode spans; both may be nil/zero.
func (s *Server) fanout(t *tracing.Trace, parent tracing.SpanRef, sess *session, resp wire.Response, subs []*subscriber) {
	enc := encCache{resp: &resp, trc: t.Detail(), parent: parent}
	vp := viewSubsPool.Get().(*[]*subscriber)
	viewSubs := (*vp)[:0]
	for _, sub := range subs {
		if sub.sig != "" {
			viewSubs = append(viewSubs, sub)
			continue
		}
		s.deliver(&enc, kindSnapshot, sub)
	}
	if len(viewSubs) > 0 {
		s.fanoutViews(t, parent, sess, &resp, viewSubs)
	}
	enc.done()
	for i := range viewSubs {
		viewSubs[i] = nil // no subscriber outlives its tick via the pool
	}
	*vp = viewSubs[:0]
	viewSubsPool.Put(vp)
}

// deliver hands one encode-once fan-out frame to sub's connection
// write queue — the single delivery path for snapshots, keyframes,
// deltas and DERIVED frames. The frame counts as sent once encoded; if
// it never reaches the socket it is counted exactly once in its kind's
// dropped counter: here on an encode failure, or by writeQueue.push
// when the queue sheds it. Either way a delta subscriber re-keys at
// its next fan-out. A SNAPSHOT to a delta subscriber is a keyframe.
func (s *Server) deliver(enc *encCache, kind frameKind, sub *subscriber) {
	codec := sub.c.codecNow()
	sb, ok := enc.get(s, kind, codec)
	if !ok {
		s.m.dropped[kind].Inc()
		if sub.delta {
			sub.needKey.Store(true)
		}
		return
	}
	s.m.sent[kind].Inc()
	if kind == kindSnapshot && sub.delta {
		s.m.keyframes.Inc()
	}
	sb.ref()
	sub.c.q.push(frame{payload: sb.buf, codec: codec, kind: kind, owner: sub, shared: sb})
}

// fanoutDerived evaluates the session's performance groups over one
// snapshot and pushes the resulting DERIVED frame to its v3+
// subscribers, encode-once like fanout. Evaluation runs even with no
// eligible subscriber — threshold rules alert server-side regardless
// of who is watching — but pre-v3 peers never receive the frame
// (wire.MinProtocolDerived): their stream stays exactly what older
// servers sent.
func (s *Server) fanoutDerived(t *tracing.Trace, parent tracing.SpanRef, sess *session, snap wire.Response, subs []*subscriber, ts int64) {
	groups := sess.derivedGroups(s.defGroups)
	if len(groups) == 0 {
		return
	}
	alerts := s.derive.Tick(sess.id, snap.Events, snap.Values, ts, groups,
		func(metrics, units []string, vals []float64) {
			// The emit slices are engine-owned and reused next tick;
			// AppendFrame serializes them before this callback returns,
			// so nothing engine-owned escapes.
			resp := wire.Response{Op: wire.OpDerived, OK: true, Session: snap.Session,
				Seq: snap.Seq, Metrics: metrics, Units: units, DValues: vals}
			enc := encCache{resp: &resp, trc: t.Detail(), parent: parent}
			for _, sub := range subs {
				if sub.c.version.Load() >= wire.MinProtocolDerived {
					s.deliver(&enc, kindDerived, sub)
				}
			}
			enc.done()
		})
	if alerts > 0 && t != nil {
		// A fired threshold alert makes the surrounding tick/request
		// trace an error — tail retention keeps the flight-recorder
		// evidence of what the pipeline was doing when it fired.
		t.AnnotateInt(parent, "alerts", int64(alerts))
		t.SetError(fmt.Sprintf("derive: %d threshold alert(s) fired", alerts))
	}
}

// subscriber is one SUBSCRIBE registration on one connection. Its
// fan-out frames go straight into the connection's write queue, the
// only queue between a fan-out and the socket, so a slow viewer sees a
// gappy stream, never a stalled server. A wildcard SUBSCRIBE registers
// one subscriber on every matched session.
type subscriber struct {
	c *conn

	// The v4 filter, immutable after subscribe: events is the canonical
	// event-name filter (nil = all), delta requests delta frames, and
	// sig is the filter signature fanout partitions by ("" = the
	// unfiltered, non-delta fast path). See filter.go.
	events []string
	delta  bool
	sig    string
	// needKey, on a delta subscriber, requests a keyframe at the next
	// fan-out: set at subscribe (the first frame anchors the stream)
	// and whenever one of its frames is dropped — a drop may have taken
	// a keyframe with it, and re-keying is cheap next to silently
	// corrupt state. writeQueue.push clears it when a keyframe is
	// enqueued.
	needKey atomic.Bool
}

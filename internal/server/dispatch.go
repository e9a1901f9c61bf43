package server

import (
	"cmp"
	"errors"
	"fmt"
	"path"
	"slices"

	"repro/internal/derive"
	"repro/internal/telemetry/tracing"
	"repro/internal/tsdb"
	"repro/internal/tsdb/wal"
	"repro/internal/wire"
	"repro/papi"
	"repro/workload"
)

func (s *Server) dispatch(c *conn, req *wire.Request) wire.Response {
	switch req.Op {
	case wire.OpHello:
		if c != nil {
			c.version.Store(int32(req.Version))
		}
		resp := wire.Response{Op: req.Op, OK: true,
			Protocol: wire.ProtocolVersion, Platform: s.cfg.DefaultPlatform}
		// Confirm the binary upgrade only for v3+ peers that asked, and
		// only before any subscription exists: a snapshot encoded
		// concurrently with the codec flip could otherwise straddle the
		// negotiation. (Clients negotiate first; this enforces it.)
		if req.Codec == wire.CodecNameBinary && req.Version >= wire.MinProtocolBinary &&
			(c == nil || !c.subscribing()) {
			resp.Codec = wire.CodecNameBinary
		}
		return resp
	case wire.OpCreate:
		return s.createSession(req)
	case wire.OpAddEvents:
		return s.withSession(req, func(sess *session) wire.Response {
			names, err := sess.addEvents(s, req.Events)
			if err != nil {
				return errResp(req, err)
			}
			return wire.Response{Op: req.Op, OK: true, Session: sess.id, Events: names}
		})
	case wire.OpStart:
		return s.withSession(req, func(sess *session) wire.Response {
			if err := sess.start(); err != nil {
				return errResp(req, err)
			}
			return wire.Response{Op: req.Op, OK: true, Session: sess.id}
		})
	case wire.OpRead:
		return s.withSession(req, func(sess *session) wire.Response {
			resp, err := sess.read()
			if err != nil {
				return errResp(req, err)
			}
			resp.Op = req.Op
			return resp
		})
	case wire.OpSubscribe:
		return s.subscribe(c, req)
	case wire.OpPublish:
		return s.withSession(req, func(sess *session) wire.Response {
			snap, subs, err := sess.publish(req.Events, req.Values)
			if err != nil {
				return errResp(req, err)
			}
			now := s.cfg.now()
			// Stage spans on the request trace (all no-ops untraced): a
			// slow PUBLISH shows whether the synchronous WAL append, the
			// fan-out encodes, or the derive evaluation ate the budget.
			t := c.reqTrace()
			hs := t.StartSpan(tracing.NoSpan, "tsdb.append")
			s.appendHistory(wal.Row{Session: sess.id, TS: now,
				Events: snap.Events, Vals: snap.Values})
			t.EndSpan(hs)
			fs := t.StartSpan(tracing.NoSpan, "fanout")
			t.AnnotateInt(fs, "subs", int64(len(subs)))
			s.fanout(t, fs, sess, snap, subs)
			t.EndSpan(fs)
			ds := t.StartSpan(tracing.NoSpan, "derive")
			s.fanoutDerived(t, ds, sess, snap, subs, now)
			t.EndSpan(ds)
			return wire.Response{Op: req.Op, OK: true, Session: sess.id, Seq: snap.Seq}
		})
	case wire.OpStop:
		return s.withSession(req, func(sess *session) wire.Response {
			names, final, err := sess.stop()
			if err != nil {
				return errResp(req, err)
			}
			return wire.Response{Op: req.Op, OK: true, Session: sess.id,
				Events: names, Values: final}
		})
	case wire.OpCloseSession:
		sess, ok := s.reg.remove(req.Session)
		if !ok {
			return errResp(req, fmt.Errorf("no session %d", req.Session))
		}
		final := sess.close()
		s.derive.CloseSession(req.Session)
		return wire.Response{Op: req.Op, OK: true, Session: req.Session, Values: final}
	case wire.OpQuery:
		if s.hist == nil {
			return errResp(req, errors.New("history disabled (papid -tsdb-mem 0)"))
		}
		// Validate the window before touching the store: a reversed
		// range or negative step is a client bug that deserves a loud
		// ERROR, not an empty series it might mistake for no data.
		if req.To <= req.From {
			return errResp(req, fmt.Errorf("bad range [%d, %d): from must precede to", req.From, req.To))
		}
		if req.Step < 0 {
			return errResp(req, fmt.Errorf("bad step %d: must be >= 0 (0 returns raw samples)", req.Step))
		}
		if len(req.Derive) > 0 {
			return s.queryDerived(c, req)
		}
		// No live-session check: history legitimately outlives its
		// session, which is half the point of keeping it.
		series := s.hist.Query(req.Session, tsdb.Query{
			Events: req.Events, From: req.From, To: req.To, Step: req.Step,
		})
		return wire.Response{Op: req.Op, OK: true, Session: req.Session, Series: series}
	case wire.OpStats:
		resp := wire.Response{Op: req.Op, OK: true, Stats: s.Stats()}
		// Histogram summaries are a v3 addition: only peers that
		// announced version >= 3 at HELLO receive them, so a v2 JSON
		// client's STATS reply stays byte-compatible with what PR 2's
		// server sent (see wire.MinProtocolStatsHists).
		if c != nil && c.version.Load() >= wire.MinProtocolStatsHists {
			resp.Hists = s.m.reg.Summaries()
		}
		// Recent slow-op samples (op, session, duration, trace ID) are a
		// v4 addition, gated like TraceID itself.
		if c != nil && c.version.Load() >= wire.MinProtocolTrace {
			resp.Slow = s.slowOps.samples()
		}
		return resp
	case wire.OpBye:
		return wire.Response{Op: req.Op, OK: true}
	}
	return errResp(req, fmt.Errorf("unknown op %q", req.Op))
}

func (s *Server) withSession(req *wire.Request, f func(*session) wire.Response) wire.Response {
	sess, ok := s.reg.get(req.Session)
	if !ok {
		return errResp(req, fmt.Errorf("no session %d", req.Session))
	}
	return f(sess)
}

func errResp(req *wire.Request, err error) wire.Response {
	return wire.Response{Op: req.Op, OK: false, Session: req.Session, Error: err.Error()}
}

// subscribe answers an OpSubscribe: the classic single-session form
// (Session != 0) with optional derive groups, or the v4 wildcard form
// (Sessions / Labels) that registers one shared subscriber on every
// matched session. Both forms accept the v4 event filter and delta
// mode; every v4 feature is gated on the peer having announced
// protocol >= wire.MinProtocolFilter at HELLO, so pre-v4 peers keep
// the exact streams earlier servers sent.
func (s *Server) subscribe(c *conn, req *wire.Request) wire.Response {
	filtered := len(req.Events) > 0 || req.Delta || len(req.Sessions) > 0 || len(req.Labels) > 0
	if filtered && c.version.Load() < wire.MinProtocolFilter {
		return errResp(req, fmt.Errorf(
			"filtered/delta subscriptions require protocol >= %d (announce your version in HELLO)",
			wire.MinProtocolFilter))
	}
	if len(req.Sessions) == 0 && len(req.Labels) == 0 {
		return s.withSession(req, func(sess *session) wire.Response {
			if len(req.Derive) > 0 {
				// Validate the derive registration before the subscriber
				// exists: a rejected group must leave no half-registered
				// state and no subscription behind.
				if c.version.Load() < wire.MinProtocolDerived {
					return errResp(req, fmt.Errorf(
						"derive requires protocol >= %d (announce your version in HELLO)", wire.MinProtocolDerived))
				}
				if err := sess.registerDerive(s.derive.Registry(), req.Derive); err != nil {
					return errResp(req, err)
				}
			}
			sub := newSubscriber(c, req)
			names, err := sess.addSubscriber(sub)
			if err != nil {
				return errResp(req, err)
			}
			attachSub(c, sub, sess)
			return wire.Response{Op: req.Op, OK: true, Session: sess.id, Events: names}
		})
	}
	// Wildcard form. Validate everything before touching any session: a
	// rejected request must leave no partial registration behind.
	if req.Session != 0 {
		return errResp(req, errors.New(
			"wildcard SUBSCRIBE: leave session 0 when listing sessions or labels"))
	}
	if len(req.Derive) > 0 {
		return errResp(req, errors.New("derive groups need a single-session SUBSCRIBE"))
	}
	for _, g := range req.Labels {
		if _, err := path.Match(g, ""); err != nil {
			return errResp(req, fmt.Errorf("bad label glob %q: %v", g, err))
		}
	}
	var matched []*session
	s.reg.forEach(func(sess *session) {
		if sess.matches(req.Sessions, req.Labels) {
			matched = append(matched, sess)
		}
	})
	slices.SortFunc(matched, func(a, b *session) int { return cmp.Compare(a.id, b.id) })
	sub := newSubscriber(c, req)
	var ids []uint64
	var attached []*session
	for _, sess := range matched {
		if _, err := sess.addSubscriber(sub); err != nil {
			continue // closed between the registry scan and here
		}
		attached = append(attached, sess)
		ids = append(ids, sess.id)
	}
	if len(attached) == 0 {
		return errResp(req, errors.New("wildcard SUBSCRIBE matched no live session"))
	}
	attachSub(c, sub, attached...)
	return wire.Response{Op: req.Op, OK: true, Sessions: ids}
}

// newSubscriber builds a subscriber carrying the request's filter. A
// delta subscriber starts with needKey set: its first frame must be a
// keyframe to anchor the stream.
func newSubscriber(c *conn, req *wire.Request) *subscriber {
	sig, canon := filterSig(req.Events, req.Delta)
	sub := &subscriber{c: c, events: canon, delta: req.Delta, sig: sig}
	if req.Delta {
		sub.needKey.Store(true)
	}
	return sub
}

// attachSub records the subscriber on its connection, so teardown can
// unregister it from every session it joined.
func attachSub(c *conn, sub *subscriber, sessions ...*session) {
	c.mu.Lock()
	c.subs = append(c.subs, subRef{sessions: slices.Clone(sessions), sub: sub})
	c.mu.Unlock()
}

// queryDerived answers a derive-mode QUERY: the named groups' formulas
// evaluated over the session's history window. Validation is loud on
// purpose: an unknown group, a pre-v3 peer, or a formula referencing
// an event the session never recorded earns a wire ERROR naming the
// gap — never an empty reply a client could mistake for "no data".
func (s *Server) queryDerived(c *conn, req *wire.Request) wire.Response {
	if s.hist == nil {
		// Defense in depth: dispatch already rejects QUERY on a
		// history-less server, but this path dereferences s.hist twice
		// below — a future caller must get the wire ERROR, not a panic.
		return errResp(req, errors.New("history disabled (papid -tsdb-mem 0)"))
	}
	if c != nil && c.version.Load() < wire.MinProtocolDerived {
		return errResp(req, fmt.Errorf(
			"derive requires protocol >= %d (announce your version in HELLO)", wire.MinProtocolDerived))
	}
	groups, err := s.derive.Registry().Resolve(req.Derive)
	if err != nil {
		return errResp(req, err)
	}
	need := derive.EventsFor(groups)
	have := s.hist.Events(req.Session)
	for _, ev := range need {
		if !slices.Contains(have, ev) {
			return errResp(req, fmt.Errorf(
				"derive: groups %v need event %s, but session %d recorded no history for it (have %v)",
				req.Derive, ev, req.Session, have))
		}
	}
	series := s.hist.Query(req.Session, tsdb.Query{
		Events: need, From: req.From, To: req.To, Step: req.Step,
	})
	hs := derive.EvalHistory(groups, series)
	out := make([]wire.DerivedSeries, len(hs))
	for i, h := range hs {
		pts := make([]wire.DerivedPoint, len(h.Points))
		for j, p := range h.Points {
			pts[j] = wire.DerivedPoint{Start: p.Start, Value: p.Value}
		}
		out[i] = wire.DerivedSeries{Metric: h.Metric, Unit: h.Unit, Points: pts}
	}
	return wire.Response{Op: req.Op, OK: true, Session: req.Session, Derived: out}
}

// createSession builds a session: a private System on the requested
// platform, its events resolved and admission-checked through the
// allocation cache, and the workload the tick loop will advance.
func (s *Server) createSession(req *wire.Request) wire.Response {
	platform := req.Platform
	if platform == "" {
		platform = s.cfg.DefaultPlatform
	}
	sys, err := papi.Init(papi.Options{Platform: platform})
	if err != nil {
		return errResp(req, err)
	}
	th := sys.Main()
	sess := &session{
		id:       s.nextID.Add(1),
		label:    req.Label,
		platform: platform,
		sys:      sys,
		th:       th,
		es:       th.NewEventSet(),
		subs:     make(map[*subscriber]struct{}),
	}
	names, err := sess.addEvents(s, req.Events)
	if err != nil {
		return errResp(req, err)
	}
	n := req.N
	if n <= 0 {
		n = 24
	}
	switch req.Workload {
	case "none":
		// Publish-only session; papid never drives it.
	case "":
		sess.prog, _ = workload.ByName("dot", n)
	default:
		prog, err := workload.ByName(req.Workload, n)
		if err != nil {
			return errResp(req, err)
		}
		sess.prog = prog
	}
	s.reg.put(sess)
	s.slog.Info("papid: session created", "session", sess.id,
		"platform", platform, "events", len(names))
	return wire.Response{Op: req.Op, OK: true, Session: sess.id,
		Platform: platform, Events: names}
}

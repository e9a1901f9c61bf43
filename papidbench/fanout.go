package main

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/tsdb/wal"
	"repro/internal/wire"
)

// publish-fanout: 64 publish-only sessions of 16 counters, one JSON
// publisher, and one binary subscriber connection holding three
// wildcard subscriptions (full, delta, and a 4-event projection).
// Open loop at 4000 PUBLISH/s, then closed loop with 32 in flight. No
// hwsim and no WAL: this prices fan-out, wire and dispatch.
const (
	fanSessions = 64
	fanEvents   = 16
	fanRate     = 4000.0
	fanInFlight = 32   // below papid's 64-deep per-connection write queue
	fanRing     = 1024 // published rows kept per session for checking frames
	fanRecent   = 64   // 16-event snapshots kept per session to re-anchor deltas
	fanKeepRows = 256  // rows per session kept for the per-layer replay
)

// Frame kinds as the subscriber tells them apart: 16-event snapshots
// (full stream or delta keyframes, which are identical on the wire),
// deltas, and 4-event projections.
const (
	kindFull = iota
	kindDelta
	kindProj
	nKinds
)

var kindNames = [nKinds]string{"full", "delta", "proj"}

// Phases of the measurement; frames are attributed to a phase by the
// due time their e0 counter carries.
const (
	phaseWarm = iota
	phaseOpen
	phaseClosed
)

type fanSess struct {
	id  uint64
	chg [fanEvents]float64 // per-counter change probability (seeded)
	rng *rand.Rand         // sender goroutine only

	mu   sync.Mutex
	row  []int64 // last published values
	next uint64  // seq the next PUBLISH will get
	rows [fanRing][]int64
	seqs [fanRing]uint64

	// Subscriber-side state, touched only by the subscriber's reader.
	recent    [fanRecent]wire.Response
	trackerAt uint64 // Seq of the keyframe the delta tracker holds
	lastSeq   [nKinds]uint64
}

// nextRow builds the next row: e0 carries the due time, the other
// counters grow by seeded increments with seeded probabilities.
func (s *fanSess) nextRow(dueNS int64) []int64 {
	row := slices.Clone(s.row)
	row[0] = dueNS
	for j := 1; j < fanEvents; j++ {
		if s.rng.Float64() < s.chg[j] {
			row[j] += 1 + s.rng.Int63n(1<<20)
		}
	}
	return row
}

// lookup returns the row published under seq, if still kept.
func (s *fanSess) lookup(seq uint64) ([]int64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seqs[seq%fanRing] != seq {
		return nil, false
	}
	return s.rows[seq%fanRing], true
}

// fanWindow is the open phase's measurement window, set once before
// the first open-phase PUBLISH goes out.
type fanWindow struct {
	openStart, openEnd int64     // ns offsets bounding the open phase's due times
	deliv              *segments // delivery latency, sliced by due time
	acks               *segments // acked publishes, sliced by due time, with papid CPU
}

type fanout struct {
	r        *run
	p        *papidProc
	pub, sub *client
	sess     []*fanSess
	byID     map[uint64]*fanSess
	names    []string
	proj     []string
	projIdx  []int
	orderRng *rand.Rand
	sem      chan struct{}
	before   wire.Response

	win    atomic.Pointer[fanWindow]
	closed atomic.Pointer[segments] // closed-phase acks, sliced by arrival

	// Publisher side (updated on the publisher's reader goroutine).
	ackOpen, ackClosed samples
	ackedOpen          atomic.Int64
	ackedClosed        atomic.Int64
	firstErr           atomic.Value

	// Subscriber side (updated on the subscriber's reader goroutine).
	tracker    wire.DeltaTracker
	deliv      [nKinds]samples // open-phase delivery latency per kind
	delivAll   samples
	recvOpen   atomic.Int64
	recvClosed atomic.Int64
	recvKind   [nKinds]atomic.Int64
	deltaGaps  atomic.Int64

	keep []wal.Row // rows kept for the per-layer replay
}

func newFanout(r *run) *fanout {
	rng := rand.New(rand.NewSource(r.cfg.seed))
	f := &fanout{r: r, byID: map[uint64]*fanSess{}, sem: make(chan struct{}, fanInFlight),
		orderRng: rand.New(rand.NewSource(rng.Int63()))}
	for j := 0; j < fanEvents; j++ {
		f.names = append(f.names, fmt.Sprintf("e%d", j))
	}
	// The projection always carries e0, so projected frames time
	// themselves too; the other three are seeded.
	f.projIdx = append([]int{0}, rng.Perm(fanEvents - 1)[:3]...)
	for i := 1; i < len(f.projIdx); i++ {
		f.projIdx[i]++
	}
	slices.Sort(f.projIdx)
	for _, j := range f.projIdx {
		f.proj = append(f.proj, f.names[j])
	}
	probs := []float64{0.95, 0.5, 0.1}
	for i := 0; i < fanSessions; i++ {
		s := &fanSess{rng: rand.New(rand.NewSource(rng.Int63())), row: make([]int64, fanEvents), next: 1}
		for j := 1; j < fanEvents; j++ {
			s.chg[j] = probs[rng.Intn(len(probs))]
			s.row[j] = rng.Int63n(1 << 30)
		}
		f.sess = append(f.sess, s)
	}
	return f
}

func (f *fanout) setup() error {
	p, err := startPapid(f.r.cfg.papid, f.r.papidFlags)
	if err != nil {
		return err
	}
	f.p = p
	if f.pub, err = dial(p.addr, false, nil); err != nil {
		return err
	}
	if f.sub, err = dial(p.addr, true, f.onFrame); err != nil {
		return err
	}
	f.pub.spans, f.pub.lane = f.r.spans, 1
	f.sub.spans, f.sub.lane = f.r.spans, 4
	reqs := make([]wire.Request, fanSessions)
	for i := range reqs {
		reqs[i] = wire.Request{Op: wire.OpCreate, Workload: "none", Label: fmt.Sprintf("pf-%02d", i)}
	}
	resps, err := f.pub.pipeline(reqs, fanInFlight)
	if err != nil {
		return err
	}
	for i, s := range f.sess {
		s.id = resps[i].Session
		f.byID[s.id] = s
	}
	// The first PUBLISH names the events (seq 1); later ones send
	// values only. Nothing subscribes yet, so nothing fans out.
	for i, s := range f.sess {
		row, _ := f.record(s, 0)
		reqs[i] = wire.Request{Op: wire.OpPublish, Session: s.id, Events: f.names, Values: row}
	}
	if resps, err = f.pub.pipeline(reqs, fanInFlight); err != nil {
		return err
	}
	for i, resp := range resps {
		if resp.Seq != 1 {
			return fmt.Errorf("first PUBLISH to session %d got seq %d", f.sess[i].id, resp.Seq)
		}
	}
	if f.before, err = statsOf(f.pub); err != nil {
		return err
	}
	for _, sub := range []wire.Request{
		{Op: wire.OpSubscribe, Labels: []string{"pf-*"}},
		{Op: wire.OpSubscribe, Labels: []string{"pf-*"}, Delta: true},
		{Op: wire.OpSubscribe, Labels: []string{"pf-*"}, Events: f.proj},
	} {
		resp, err := f.sub.do(&sub)
		if err != nil {
			return err
		}
		if len(resp.Sessions) != fanSessions {
			return fmt.Errorf("wildcard SUBSCRIBE matched %d sessions, want %d", len(resp.Sessions), fanSessions)
		}
	}
	return nil
}

func (f *fanout) teardown() {
	if f.pub != nil {
		f.pub.close()
	}
	if f.sub != nil {
		f.sub.close()
	}
	if f.p != nil {
		if err := f.p.stop(); err != nil {
			f.r.rep.fail("papid shutdown: %v", err)
		}
	}
}

// record assigns s's next seq to a fresh row due at dueNS and keeps
// it for checking; it returns the row to publish and its seq.
func (f *fanout) record(s *fanSess, dueNS int64) ([]int64, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	row := s.nextRow(dueNS)
	s.row = row
	seq := s.next
	s.next++
	s.rows[seq%fanRing], s.seqs[seq%fanRing] = row, seq
	if seq <= fanKeepRows {
		f.keep = append(f.keep, wal.Row{Session: s.id, TS: dueNS / 1e3, Events: f.names, Vals: row})
	}
	return row, seq
}

// publish sends one PUBLISH due at due, waiting for an in-flight slot.
func (f *fanout) publish(s *fanSess, due time.Time, phase int) {
	f.sem <- struct{}{}
	row, seq := f.record(s, f.r.ns(due))
	f.r.attempted.Add(1)
	f.pub.send(&wire.Request{Op: wire.OpPublish, Session: s.id, Values: row},
		&call{due: due, done: func(c *call) { f.onAck(c, s, seq, phase) }})
}

func (f *fanout) onAck(c *call, s *fanSess, seq uint64, phase int) {
	<-f.sem
	if c.err != nil || !c.resp.OK {
		f.r.failed.Add(1)
		if c.err != nil {
			f.firstErr.CompareAndSwap(nil, c.err.Error())
		} else {
			f.firstErr.CompareAndSwap(nil, c.resp.Error)
		}
		return
	}
	if c.resp.Seq != seq {
		f.r.rep.fail("PUBLISH to session %d acked seq %d, expected %d", s.id, c.resp.Seq, seq)
	}
	lat := c.at.Sub(c.due).Nanoseconds()
	switch phase {
	case phaseOpen:
		f.ackOpen.add(lat)
		f.ackedOpen.Add(1)
		f.win.Load().acks.add(c.due, lat)
	case phaseClosed:
		f.ackClosed.add(lat)
		f.ackedClosed.Add(1)
		f.closed.Load().add(c.at, -1)
	}
	if f.r.spans != nil {
		root := f.r.spans.add("publish", 1, c.due, c.at, -1)
		f.r.spans.add("publish.queued", 1, c.due, c.sent, root)
		f.r.spans.add("publish.ack", 1, c.sent, c.at, root)
	}
}

// onFrame checks one fan-out frame against what was published and
// times its delivery from the due time its e0 counter carries.
func (f *fanout) onFrame(resp *wire.Response, at time.Time) {
	s := f.byID[resp.Session]
	if s == nil {
		f.r.rep.fail("%s frame for unknown session %d", resp.Op, resp.Session)
		return
	}
	var kind int
	var e0 int64
	switch resp.Op {
	case wire.OpSnapshot:
		row, ok := s.lookup(resp.Seq)
		if !ok {
			f.r.rep.fail("SNAPSHOT session %d seq %d: no such publish kept", s.id, resp.Seq)
			return
		}
		if len(resp.Events) == len(f.proj) {
			kind = kindProj
			if !slices.Equal(resp.Events, f.proj) {
				f.r.rep.fail("projected SNAPSHOT session %d carries events %v, want %v", s.id, resp.Events, f.proj)
				return
			}
			if len(resp.Values) != len(f.projIdx) {
				f.r.rep.fail("projected SNAPSHOT session %d carries %d values", s.id, len(resp.Values))
				return
			}
			for i, j := range f.projIdx {
				if resp.Values[i] != row[j] {
					f.r.rep.fail("projected SNAPSHOT session %d seq %d: %s=%d, published %d",
						s.id, resp.Seq, f.proj[i], resp.Values[i], row[j])
					return
				}
			}
		} else {
			kind = kindFull
			if !slices.Equal(resp.Events, f.names) || !slices.Equal(resp.Values, row) {
				f.r.rep.fail("SNAPSHOT session %d seq %d: %v=%v, published %v",
					s.id, resp.Seq, resp.Events, resp.Values, row)
				return
			}
			s.recent[resp.Seq%fanRecent] = *resp
		}
		e0 = resp.Values[0]
	case wire.OpDelta:
		kind = kindDelta
		for i, ix := range resp.Idx {
			if ix == 0 && i < len(resp.Values) {
				e0 = resp.Values[i] // e0 changes on every publish, so every delta carries it
			}
		}
		if s.trackerAt != resp.Base {
			// Full and keyframe snapshots are identical on the wire, so
			// the keyframe a delta names is whichever 16-event snapshot
			// arrived with that seq. Neither arriving is a gap.
			k := s.recent[resp.Base%fanRecent]
			if k.Seq != resp.Base || k.Op != wire.OpSnapshot {
				f.deltaGaps.Add(1)
				break
			}
			if _, err := f.tracker.Apply(k); err != nil {
				f.r.rep.fail("delta tracker refused keyframe: %v", err)
				return
			}
			s.trackerAt = resp.Base
		}
		full, err := f.tracker.Apply(*resp)
		if err != nil {
			if errors.Is(err, wire.ErrDeltaGap) || errors.Is(err, wire.ErrNoKeyframe) {
				f.deltaGaps.Add(1)
				break
			}
			f.r.rep.fail("DELTA session %d seq %d: %v", s.id, resp.Seq, err)
			return
		}
		row, ok := s.lookup(resp.Seq)
		if !ok {
			f.r.rep.fail("DELTA session %d seq %d: no such publish kept", s.id, resp.Seq)
			return
		}
		if !slices.Equal(full.Events, f.names) || !slices.Equal(full.Values, row) {
			f.r.rep.fail("reassembled DELTA session %d seq %d: %v, full stream %v", s.id, resp.Seq, full.Values, row)
			return
		}
		e0 = full.Values[0]
	default:
		f.r.rep.fail("unexpected %s frame on the subscriber", resp.Op)
		return
	}
	if resp.Seq <= s.lastSeq[kind] && kind != kindFull {
		f.r.rep.fail("%s stream of session %d went from seq %d to %d", kindNames[kind], s.id, s.lastSeq[kind], resp.Seq)
	}
	s.lastSeq[kind] = resp.Seq
	f.recvKind[kind].Add(1)
	w := f.win.Load()
	switch {
	case w == nil:
	case e0 >= w.openStart && e0 < w.openEnd:
		lat := f.r.ns(at) - e0
		f.deliv[kind].add(lat)
		f.delivAll.add(lat)
		f.recvOpen.Add(1)
		w.deliv.add(f.r.epoch.Add(time.Duration(e0)), lat)
	case e0 >= w.openEnd:
		f.recvClosed.Add(1)
	}
}

func runFanout(r *run) error {
	f, err := setupMedian(r, setupRuns, func() (*fanout, error) {
		f := newFanout(r)
		if err := f.setup(); err != nil {
			f.teardown()
			return nil, err
		}
		return f, nil
	}, (*fanout).teardown)
	if err != nil {
		return err
	}
	defer f.teardown()

	openDur := time.Duration(0.5 * r.secs * float64(time.Second))
	closedDur := time.Duration(0.5 * r.secs * float64(time.Second))
	warm := time.Second
	order := func() func(i int) *fanSess {
		var perm []int
		return func(i int) *fanSess {
			if i%fanSessions == 0 {
				perm = f.orderRng.Perm(fanSessions)
			}
			return f.sess[perm[i%fanSessions]]
		}
	}()

	start := time.Now().Add(10 * time.Millisecond)
	w := &fanWindow{openStart: r.ns(start.Add(warm)), openEnd: r.ns(start.Add(warm + openDur)),
		deliv: newSegments(start.Add(warm), segWidth, openDur),
		acks:  newSegments(start.Add(warm), segWidth, openDur)}
	f.win.Store(w)
	ol := &openLoop{rate: fanRate}
	cpuErr := make(chan error, 1)
	go func() { cpuErr <- w.acks.sampleCPU(f.p) }()
	gen0 := genCPU()
	tOpen := time.Now()
	ol.run(start, warm+openDur, func(i int, due time.Time) {
		phase := phaseOpen
		if due.Before(start.Add(warm)) {
			phase = phaseWarm
		}
		f.publish(order(i), due, phase)
	})
	r.spans.add("phase.open", 0, tOpen, time.Now(), -1)
	if err := <-cpuErr; err != nil {
		return err
	}
	gen1 := genCPU()

	// Closed-loop requests must not carry due times inside the open
	// window, or their frames would count against it.
	time.Sleep(time.Until(start.Add(warm + openDur)))
	tClosed := time.Now()
	closed := newSegments(tClosed, segWidth, closedDur)
	f.closed.Store(closed)
	closedEnd := closed.end()
	n0 := f.ackedClosed.Load()
	go func() { cpuErr <- closed.sampleCPU(f.p) }()
	for i := 0; time.Now().Before(closedEnd); i++ {
		f.publish(order(i), time.Now(), phaseClosed)
	}
	closedAcks := f.ackedClosed.Load() - n0
	closedSecs := time.Since(tClosed).Seconds()
	if err := <-cpuErr; err != nil {
		return err
	}
	r.spans.add("phase.closed", 0, tClosed, time.Now(), -1)
	// Drain: every in-flight request answered, then the stream quiet.
	drained := make(chan struct{})
	go func() {
		for i := 0; i < fanInFlight; i++ {
			f.sem <- struct{}{}
		}
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		f.pub.close() // unanswered requests fail as timed out
		<-drained
	}
	waitQuiet(f.sub, 200*time.Millisecond, 5*time.Second)
	after, err := statsOf(f.sub)
	if err != nil {
		return fmt.Errorf("final STATS: %w", err)
	}

	ack := r.rep.latency("ack", &f.ackOpen)
	deliv := r.rep.latency("delivery", &f.delivAll)
	for k := 0; k < nKinds; k++ {
		r.rep.latency("delivery."+kindNames[k], &f.deliv[k])
		r.rep.add("frames."+kindNames[k], "count", float64(f.recvKind[k].Load()), "received, all phases")
	}
	expected := 3 * float64(f.ackedOpen.Load())
	r.rep.add("delivered_ratio", "ratio", ratio(float64(f.recvOpen.Load()), expected),
		fmt.Sprintf("open loop: %d of %.0f frames", f.recvOpen.Load(), expected))
	r.rep.add("delivered_ratio_closed", "ratio",
		ratio(float64(f.recvClosed.Load()), 3*float64(f.ackedClosed.Load())), "closed loop, saturated")
	r.rep.add("capacity_rps", "1/s", float64(closedAcks)/closedSecs,
		fmt.Sprintf("%d acks in %.2fs, %d in flight", closedAcks, closedSecs, fanInFlight))
	r.rep.latency("ack_closed", &f.ackClosed)
	r.rep.add("delta_gaps", "count", float64(f.deltaGaps.Load()), "deltas whose keyframe was not received")
	r.rep.add("failed_ratio", "ratio", ratio(float64(r.failed.Load()), float64(r.attempted.Load())),
		fmt.Sprintf("%d of %d", r.failed.Load(), r.attempted.Load()))
	if e := f.firstErr.Load(); e != nil {
		r.rep.add("first_error", "", 0, e.(string))
	}
	if deliv.N == 0 || ack.N == 0 {
		r.rep.fail("no delivery or ack latency samples")
	}
	r.calm("open", w.acks, w.deliv)
	r.calm("closed", closed)
	r.set("latency_p50_us", "us", w.deliv.medianP50(),
		fmt.Sprintf("publish-fanout: delivery_p50_us, median over the kept slices of %d x %v", len(w.deliv.count), segWidth))
	r.set("rate_per_s", "1/s", closed.medianRate(),
		fmt.Sprintf("publish-fanout: capacity_rps, median over the kept slices of %d x %v", len(closed.count), segWidth))
	r.rep.add("cpu_us_per_op_open", "us", w.acks.cpuPerOp(),
		fmt.Sprintf("papid CPU per acked PUBLISH at 4000/s, over the kept slices of %d x %v", len(w.acks.count), segWidth))
	// At capacity papid never idles between requests, so its CPU per
	// PUBLISH repeats far better than at the open loop's fixed rate.
	r.usage(f.p, closed.cpuPerOp(), fmt.Sprintf("papid CPU per acked PUBLISH at capacity, over the kept slices of %d x %v",
		len(closed.count), segWidth), gen1-gen0, float64(f.ackedOpen.Load()))
	r.lagCheck(ol, 5*time.Millisecond)
	r.serverLayer(f.before, after, time.Since(tOpen).Seconds(), "json")
	r.ledger(f.before, after, float64(f.sub.frames.Load()))
	r.inputs = replayInputs{rows: f.keep,
		reply: wire.Response{Op: wire.OpPublish, OK: true, Session: f.sess[0].id, Seq: 12345}}
	return nil
}

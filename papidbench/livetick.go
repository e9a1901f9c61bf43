package main

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// live-tick: 256 started hwsim sessions on aix-power3 (the shape of
// BenchmarkTickParallel), papid ticking every 10ms with the ipc group,
// and one JSON wildcard subscriber receiving SNAPSHOT and DERIVED
// frames. No PUBLISH or QUERY: hwsim, core and the tick sweep do the
// work. The session count stays at 256 even though the one shared
// wildcard queue drops most frames — that loss is what this workload
// measures.
const (
	ltSessions = 256
	ltInFlight = 32
	ltWorkload = "dot"
	ltN        = 8
)

var ltEvents = []string{"PAPI_TOT_INS", "PAPI_TOT_CYC", "PAPI_L2_TCM", "PAPI_L2_TCA"}

// ltFlags are the papid flags live-tick names; everything else stays
// at papid's defaults.
var ltFlags = []string{"-tick", "10ms", "-groups", "ipc"}

type ltSess struct {
	id     uint64
	events []string // seeded rotation of ltEvents
	// Subscriber-side state, touched only by the reader goroutine.
	lastSeq  uint64
	lastVals []int64
	lastAt   time.Time
	lastNS   atomic.Int64 // lastAt as an epoch offset, read by the staleness sampler
	seqs     []uint64     // every received snapshot's seq…
	vals     []int64      // …and its values, len(events) per snapshot
	dseqs    []uint64     // every received DERIVED frame's seq…
	dvals    []float64    // …and its ipc and mips values
	inWindow int
}

type liveTick struct {
	r      *run
	p      *papidProc
	c      *client
	sess   []*ltSess
	byID   map[uint64]*ltSess
	before wire.Response

	winStart, winEnd atomic.Int64 // ns offsets of the measured window; 0 = not yet
	refresh          samples
	staleness        samples
	recvWin          atomic.Int64
	snaps, derived   atomic.Int64
}

func newLiveTick(r *run) *liveTick {
	rng := rand.New(rand.NewSource(r.cfg.seed))
	lt := &liveTick{r: r, byID: map[uint64]*ltSess{}}
	for i := 0; i < ltSessions; i++ {
		k := rng.Intn(len(ltEvents))
		ev := append(slices.Clone(ltEvents[k:]), ltEvents[:k]...)
		lt.sess = append(lt.sess, &ltSess{events: ev})
	}
	// The seed also decides the order sessions are created and started.
	rng.Shuffle(len(lt.sess), func(i, j int) { lt.sess[i], lt.sess[j] = lt.sess[j], lt.sess[i] })
	return lt
}

func (lt *liveTick) setup() error {
	p, err := startPapid(lt.r.cfg.papid, lt.r.papidFlags)
	if err != nil {
		return err
	}
	lt.p = p
	if lt.c, err = dial(p.addr, false, lt.onFrame); err != nil {
		return err
	}
	lt.c.spans, lt.c.lane = lt.r.spans, 4
	reqs := make([]wire.Request, ltSessions)
	for i, s := range lt.sess {
		reqs[i] = wire.Request{Op: wire.OpCreate, Platform: "aix-power3", Events: s.events,
			Workload: ltWorkload, N: ltN, Label: fmt.Sprintf("lt-%03d", i)}
	}
	resps, err := lt.c.pipeline(reqs, ltInFlight)
	if err != nil {
		return err
	}
	for i, s := range lt.sess {
		s.id = resps[i].Session
		lt.byID[s.id] = s
		if !slices.Equal(resps[i].Events, s.events) {
			return fmt.Errorf("session %d created with events %v, asked for %v", s.id, resps[i].Events, s.events)
		}
		reqs[i] = wire.Request{Op: wire.OpStart, Session: s.id}
	}
	if _, err := lt.c.pipeline(reqs, ltInFlight); err != nil {
		return err
	}
	if lt.before, err = statsOf(lt.c); err != nil {
		return err
	}
	resp, err := lt.c.do(&wire.Request{Op: wire.OpSubscribe, Labels: []string{"lt-*"}})
	if err != nil {
		return err
	}
	if len(resp.Sessions) != ltSessions {
		return fmt.Errorf("wildcard SUBSCRIBE matched %d sessions, want %d", len(resp.Sessions), ltSessions)
	}
	return nil
}

func (lt *liveTick) teardown() {
	if lt.c != nil {
		lt.c.close()
	}
	if lt.p != nil {
		if err := lt.p.stop(); err != nil {
			lt.r.rep.fail("papid shutdown: %v", err)
		}
	}
}

// onFrame checks each frame's shape and ordering on arrival and keeps
// its values; their exact contents are checked after the run against
// an in-process replay of the same session.
func (lt *liveTick) onFrame(resp *wire.Response, at time.Time) {
	s := lt.byID[resp.Session]
	if s == nil {
		lt.r.rep.fail("%s frame for unknown session %d", resp.Op, resp.Session)
		return
	}
	now := lt.r.ns(at)
	in := lt.winStart.Load() != 0 && now >= lt.winStart.Load() && (lt.winEnd.Load() == 0 || now < lt.winEnd.Load())
	if in {
		lt.recvWin.Add(1)
	}
	switch resp.Op {
	case wire.OpSnapshot:
		lt.snaps.Add(1)
		if !slices.Equal(resp.Events, s.events) || len(resp.Values) != len(s.events) {
			lt.r.rep.fail("SNAPSHOT session %d carries %v=%v, subscribed to %v", s.id, resp.Events, resp.Values, s.events)
			return
		}
		if resp.Seq <= s.lastSeq {
			lt.r.rep.fail("SNAPSHOT session %d went from seq %d to %d", s.id, s.lastSeq, resp.Seq)
		}
		for i, v := range resp.Values {
			if s.lastVals != nil && v < s.lastVals[i] {
				lt.r.rep.fail("SNAPSHOT session %d seq %d: %s fell from %d to %d", s.id, resp.Seq, s.events[i], s.lastVals[i], v)
			}
		}
		if in && !s.lastAt.IsZero() {
			lt.refresh.add(at.Sub(s.lastAt).Nanoseconds())
		}
		if in {
			s.inWindow++
		}
		s.lastSeq, s.lastVals, s.lastAt = resp.Seq, resp.Values, at
		s.lastNS.Store(now)
		s.seqs = append(s.seqs, resp.Seq)
		s.vals = append(s.vals, resp.Values...)
	case wire.OpDerived:
		lt.derived.Add(1)
		if !slices.Equal(resp.Metrics, ipcMetrics) || len(resp.DValues) != len(ipcMetrics) {
			lt.r.rep.fail("DERIVED session %d carries %v=%v, want %v", s.id, resp.Metrics, resp.DValues, ipcMetrics)
			return
		}
		s.dseqs = append(s.dseqs, resp.Seq)
		s.dvals = append(s.dvals, resp.DValues...)
	default:
		lt.r.rep.fail("unexpected %s frame on the subscriber", resp.Op)
	}
}

// sampleStaleness measures, over seg's window, how old each session's
// view is at the subscriber: at random instants (5–35ms apart, so the
// samples do not lock to the 10ms tick), the time since each session's
// last snapshot arrived.
func (lt *liveTick) sampleStaleness(seg *segments, rng *rand.Rand) {
	end := seg.end()
	for {
		time.Sleep(time.Duration(5+rng.Intn(30)) * time.Millisecond)
		now := time.Now()
		if now.After(end) {
			return
		}
		for _, s := range lt.sess {
			if last := s.lastNS.Load(); last > 0 {
				age := lt.r.ns(now) - last
				lt.staleness.add(age)
				seg.add(now, age)
			}
		}
	}
}

// verify checks every kept snapshot and derived value against a replay
// of the same session in process: same platform, events, workload and
// one Run+Read per tick, so seq k must carry exactly replay tick k.
func (lt *liveTick) verify() (checked int, err error) {
	var maxSeq uint64
	for _, s := range lt.sess {
		if s.lastSeq > maxSeq {
			maxSeq = s.lastSeq
		}
		for _, q := range s.dseqs {
			maxSeq = max(maxSeq, q)
		}
	}
	refs := map[string]*hwReplay{}
	for _, s := range lt.sess {
		key := strings.Join(s.events, ",")
		ref := refs[key]
		if ref == nil {
			if ref, err = replayHW(s.events, int(maxSeq), lt.r.spans); err != nil {
				return checked, err
			}
			refs[key] = ref
		}
		n := len(s.events)
		for i, seq := range s.seqs {
			want := ref.vals[seq-1]
			got := s.vals[i*n : (i+1)*n]
			if !slices.Equal(got, want) {
				lt.r.rep.fail("SNAPSHOT session %d seq %d: %v=%v, replay gives %v", s.id, seq, s.events, got, want)
			}
			checked++
		}
		ins, cyc := slices.Index(s.events, "PAPI_TOT_INS"), slices.Index(s.events, "PAPI_TOT_CYC")
		for i, seq := range s.dseqs {
			if seq < 2 {
				lt.r.rep.fail("DERIVED session %d at seq %d: the first tick only primes", s.id, seq)
				continue
			}
			cur, prev := ref.vals[seq-1], ref.vals[seq-2]
			want := ipc(cur[ins]-prev[ins], cur[cyc]-prev[cyc])
			if got := s.dvals[2*i]; got != want {
				lt.r.rep.fail("DERIVED session %d seq %d: ipc %v, recomputed %v", s.id, seq, got, want)
			}
			// mips divides by papid's own tick spacing, which the
			// generator cannot see; the spacing it implies must be a
			// plausible tick interval.
			if dt := float64(cur[ins]-prev[ins]) / 1e6 / s.dvals[2*i+1]; !(dt > 0 && dt < 2) {
				lt.r.rep.fail("DERIVED session %d seq %d: mips %v implies a %vs tick", s.id, seq, s.dvals[2*i+1], dt)
			}
			checked++
		}
	}
	lt.r.inputs.hw = refs[strings.Join(ltEvents, ",")]
	return checked, nil
}

// ipcMetrics are the ipc group's metrics, in DERIVED frame order.
var ipcMetrics = []string{"ipc", "mips"}

// ipc recomputes the ipc group's formula over counter deltas, with the
// derive engine's guarded division.
func ipc(dIns, dCyc int64) float64 {
	if dCyc == 0 {
		return 0
	}
	return float64(dIns) / float64(dCyc)
}

func runLiveTick(r *run) error {
	r.papidFlags = ltFlags
	lt, err := setupMedian(r, setupRuns, func() (*liveTick, error) {
		lt := newLiveTick(r)
		if err := lt.setup(); err != nil {
			lt.teardown()
			return nil, err
		}
		return lt, nil
	}, (*liveTick).teardown)
	if err != nil {
		return err
	}
	defer lt.teardown()

	time.Sleep(time.Second) // warm-up: the stream reaches steady state
	// STATS and papid's CPU at every slice boundary give per-slice
	// session-tick rates and CPU per session-tick.
	seg := newSegments(time.Now().Add(5*time.Millisecond), segWidth, time.Duration(r.secs*float64(time.Second)))
	gen0 := genCPU()
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		lt.sampleStaleness(seg, rand.New(rand.NewSource(r.cfg.seed)))
	}()
	n := len(seg.count)
	ticks := make([]float64, n+1)
	at := make([]time.Time, n+1)
	cpu := make([]time.Duration, n+1)
	seg.steal = make([]hostTicks, n+1)
	for k := 0; k <= n; k++ {
		time.Sleep(time.Until(seg.start.Add(time.Duration(k) * seg.width)))
		st, t, err := statsAt(lt.c)
		if err != nil {
			return err
		}
		if cpu[k], err = lt.p.cpu(); err != nil {
			return err
		}
		seg.steal[k] = readHostTicks()
		ticks[k], at[k] = float64(st.Stats["ticks"]), t
		if k == 0 {
			lt.winStart.Store(r.ns(t))
		}
	}
	lt.winEnd.Store(r.ns(at[n]))
	<-sampled
	gen1 := genCPU()
	t0, t1 := at[0], at[n]
	r.spans.add("phase.window", 0, t0, t1, -1)
	win := t1.Sub(t0).Seconds()
	sessionTicks := (ticks[n] - ticks[0]) * ltSessions
	r.calm("window", seg)
	var rates []float64
	var keptCPU time.Duration
	var keptTicks float64
	for k := 0; k < n; k++ {
		if !seg.used(k) {
			continue
		}
		st := (ticks[k+1] - ticks[k]) * ltSessions
		rates = append(rates, st/at[k+1].Sub(at[k]).Seconds())
		keptCPU += cpu[k+1] - cpu[k]
		keptTicks += st
	}

	// Stop every session so the stream ends, then read the ledger.
	reqs := make([]wire.Request, ltSessions)
	for i, s := range lt.sess {
		reqs[i] = wire.Request{Op: wire.OpStop, Session: s.id}
	}
	r.attempted.Add(int64(len(reqs)))
	if _, err := lt.c.pipeline(reqs, ltInFlight); err != nil {
		r.failed.Add(1)
		r.rep.add("first_error", "", 0, err.Error())
	}
	waitQuiet(lt.c, 200*time.Millisecond, 5*time.Second)
	after, err := statsOf(lt.c)
	if err != nil {
		return fmt.Errorf("final STATS: %w", err)
	}
	r.usage(lt.p, ratio(float64(keptCPU.Microseconds()), keptTicks),
		fmt.Sprintf("papid CPU per session-tick, over the kept slices of %d x %v", n, segWidth),
		gen1-gen0, sessionTicks)
	lt.c.close() // the reader has exited: its per-session state is ours now

	tv := time.Now()
	checked, err := lt.verify()
	if err != nil {
		return err
	}
	r.spans.add("verify.replay", 0, tv, time.Now(), -1)
	if checked == 0 {
		r.rep.fail("no frame could be checked")
	}
	r.attempted.Add(int64(checked))

	rate := median(rates)
	r.rep.latency("refresh", &lt.refresh)
	stale := r.rep.latency("staleness", &lt.staleness)
	starved := 0
	for _, s := range lt.sess {
		if s.inWindow == 0 {
			starved++
		}
	}
	expected := 2 * sessionTicks
	r.rep.add("session_tick_rate", "1/s", sessionTicks/win, fmt.Sprintf("%.0f ticks x %d sessions in %.2fs", ticks[n]-ticks[0], ltSessions, win))
	r.rep.add("delivered_ratio", "ratio", ratio(float64(lt.recvWin.Load()), expected),
		fmt.Sprintf("%d of %.0f SNAPSHOT+DERIVED frames", lt.recvWin.Load(), expected))
	r.rep.add("starved_sessions", "count", float64(starved), "sessions with no snapshot in the window")
	r.rep.add("frames.snapshot", "count", float64(lt.snaps.Load()), "received, whole run")
	r.rep.add("frames.derived", "count", float64(lt.derived.Load()), "received, whole run")
	r.rep.add("checked_frames", "count", float64(checked), "checked against the in-process replay")
	r.rep.add("failed_ratio", "ratio", ratio(float64(r.failed.Load()), float64(r.attempted.Load())), "")
	if stale.N == 0 {
		r.rep.fail("no staleness samples")
	}
	r.set("latency_p50_us", "us", seg.medianP50(),
		fmt.Sprintf("live-tick: staleness_p50_us, median over the kept slices of %d x %v", n, segWidth))
	r.set("rate_per_s", "1/s", rate, fmt.Sprintf("live-tick: session_tick_rate, median over the kept slices of %d x %v", n, segWidth))
	r.set("gen.lag_p99_us", "us", 0, "no schedule: live-tick sends no timed requests")
	r.serverLayer(lt.before, after, win, "json")
	r.ledger(lt.before, after, float64(lt.c.frames.Load()))
	r.inputs.reply = wire.Response{Op: wire.OpStats, OK: true, Stats: after.Stats}
	return nil
}

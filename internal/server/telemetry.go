package server

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/telemetry"
	"repro/internal/wire"
)

// slowRingSize bounds the recent slow-op sample ring.
const slowRingSize = 16

// slowRing keeps the most recent SlowOp-threshold breaches — op,
// session, duration, and (when tracing is on) the trace ID the warn
// line carried — so an operator reading STATS or /statusz can jump
// from a slow sample straight to its retained flight-recorder trace.
type slowRing struct {
	mu   sync.Mutex
	buf  []wire.SlowSample
	head int
	n    int
}

func (r *slowRing) record(op string, session uint64, ns int64, trace uint64) {
	r.mu.Lock()
	if r.buf == nil {
		r.buf = make([]wire.SlowSample, slowRingSize)
	}
	r.buf[r.head] = wire.SlowSample{Op: op, Session: session, NS: ns, TraceID: trace}
	r.head = (r.head + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.mu.Unlock()
}

// samples returns the recorded breaches, newest first (nil when none).
func (r *slowRing) samples() []wire.SlowSample {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.n == 0 {
		return nil
	}
	out := make([]wire.SlowSample, 0, r.n)
	for i := 0; i < r.n; i++ {
		idx := (r.head - 1 - i + len(r.buf)) % len(r.buf)
		out = append(out, r.buf[idx])
	}
	return out
}

// metrics is the server's instrument set. Each instrument is declared
// once, here or beside the state it reads, and its Opts.Key is its
// STATS name: one registration feeds the wire STATS map (Stats), the
// Prometheus /metrics exposition, the /statusz document and papid's
// shutdown summary alike.
//
// Fan-out frame accounting: sent[k] counts frames of kind k handed to
// a subscriber's connection write queue (deliver), and a fan-out frame
// that never reaches the socket is counted exactly once, in
// dropped[k] — by deliver when it fails to encode, or by
// writeQueue.push when a full queue sheds it. writeDrops is the
// all-kinds total of those queue drops, so on a live connection the
// fan-out frames written are Σ sent − writeDrops (a frame that failed
// to encode was never counted sent). Snapshot counters cover full
// SNAPSHOT frames including keyframes, which keyframes tallies again.
type metrics struct {
	reg *telemetry.Registry

	ticks         *telemetry.Counter
	evictions     *telemetry.Counter
	deadlineTrips *telemetry.Counter
	resyncs       *telemetry.Counter
	writeDrops    *telemetry.Counter
	// tickStalls counts ticks that blocked on a full async-WAL handoff
	// queue (tick.go) — the disk falling behind the tick rate.
	tickStalls *telemetry.Counter

	// Per-kind fan-out frames, indexed by frameKind (the reply slot is
	// nil). encodeFailures counts fan-out frames that could not be
	// serialized at all — each costs every subscriber on that codec
	// its frame, which the kind's dropped counter also records.
	sent           [numFrameKinds]*telemetry.Counter
	dropped        [numFrameKinds]*telemetry.Counter
	keyframes      *telemetry.Counter
	encodeFailures *telemetry.Counter

	// Per-codec outbound traffic, indexed by wire.Codec.
	framesSent [2]*telemetry.Counter
	bytesSent  [2]*telemetry.Counter

	// tickDur tracks one fan-out tick end to end: workload advances,
	// counter reads, tsdb appends, and snapshot encodes for every
	// running session.
	tickDur *telemetry.Histogram

	// opLat holds one wire-latency histogram per (request op, codec):
	// decode-to-enqueue time for each request the dispatcher answers.
	// Unknown ops fall into the "other" pair.
	opLat   map[string]*[2]*telemetry.Histogram
	otherOp [2]*telemetry.Histogram
}

// opLatencyOps is every request op that gets its own latency
// histogram pair.
var opLatencyOps = []string{
	wire.OpHello, wire.OpCreate, wire.OpAddEvents, wire.OpStart,
	wire.OpRead, wire.OpSubscribe, wire.OpPublish, wire.OpStop,
	wire.OpCloseSession, wire.OpQuery, wire.OpStats, wire.OpBye,
}

func newMetrics(reg *telemetry.Registry) *metrics {
	m := &metrics{reg: reg}
	m.ticks = reg.NewCounter(telemetry.Opts{Name: "papid_ticks_total", Key: "ticks",
		Help: "Snapshot fan-out ticks run."})
	for _, k := range []struct {
		kind frameKind
		name string // metric family and STATS key stem
		what string // frames, in Help text
	}{
		{kindSnapshot, "snapshots", "Snapshot frames (keyframes included)"},
		{kindDelta, "deltas", "DELTA frames"},
		{kindDerived, "derived", "DERIVED frames"},
	} {
		m.sent[k.kind] = reg.NewCounter(telemetry.Opts{Name: "papid_" + k.name + "_sent_total",
			Key: k.name + "_sent", Help: k.what + " handed to subscriber write queues."})
		m.dropped[k.kind] = reg.NewCounter(telemetry.Opts{Name: "papid_" + k.name + "_dropped_total",
			Key:  k.name + "_dropped",
			Help: k.what + " that never reached the socket: shed by a full write queue or failed to encode."})
	}
	m.evictions = reg.NewCounter(telemetry.Opts{Name: "papid_evictions_total", Key: "evictions",
		Help: "Connections the server cut loose (idle, deadline trips, jammed queues)."})
	m.deadlineTrips = reg.NewCounter(telemetry.Opts{Name: "papid_deadline_trips_total", Key: "deadline_trips",
		Help: "Read/write deadline expirations that led to an eviction."})
	m.resyncs = reg.NewCounter(telemetry.Opts{Name: "papid_resyncs_total", Key: "resyncs",
		Help: "Malformed frames answered with an ERROR frame and skipped."})
	m.writeDrops = reg.NewCounter(telemetry.Opts{Name: "papid_write_drops_total", Key: "write_drops",
		Help: "Fan-out frames of every kind shed by full per-connection write queues."})
	m.tickStalls = reg.NewCounter(telemetry.Opts{Name: "papid_tick_stalls_total", Key: "tick_stalls",
		Help: "Ticks that blocked handing a history row to the WAL appender (full queue)."})
	m.keyframes = reg.NewCounter(telemetry.Opts{Name: "papid_keyframes_sent_total", Key: "keyframes_sent",
		Help: "Keyframe snapshots enqueued to delta-mode subscribers (cadence, subscribe, or drop resync)."})
	m.encodeFailures = reg.NewCounter(telemetry.Opts{Name: "papid_encode_failures_total", Key: "encode_failures",
		Help: "Fan-out frames that failed to serialize (logged once, dropped for every subscriber on the codec)."})
	for _, codec := range []wire.Codec{wire.CodecJSON, wire.CodecBinary} {
		label := telemetry.Label{Name: "codec", Value: codec.String()}
		m.framesSent[codec] = reg.NewCounter(telemetry.Opts{
			Name: "papid_frames_sent_total", Help: "Outbound frames written, by codec.",
			Labels: []telemetry.Label{label}, Key: "frames_sent_" + codec.String()})
		m.bytesSent[codec] = reg.NewCounter(telemetry.Opts{
			Name: "papid_bytes_sent_total", Help: "Outbound payload bytes written, by codec.",
			Labels: []telemetry.Label{label}, Key: "bytes_sent_" + codec.String()})
	}
	m.tickDur = reg.NewLatencyHistogram(telemetry.Opts{
		Name: "papid_tick_duration_seconds",
		Help: "Snapshot fan-out tick duration (advance + read + append + encode).",
		Key:  "tick"})
	m.opLat = make(map[string]*[2]*telemetry.Histogram, len(opLatencyOps))
	for _, op := range opLatencyOps {
		m.opLat[op] = m.newOpPair(op)
	}
	m.otherOp = *m.newOpPair("OTHER")
	return m
}

func (m *metrics) newOpPair(op string) *[2]*telemetry.Histogram {
	var pair [2]*telemetry.Histogram
	for _, codec := range []wire.Codec{wire.CodecJSON, wire.CodecBinary} {
		pair[codec] = m.reg.NewLatencyHistogram(telemetry.Opts{
			Name: "papid_op_latency_seconds",
			Help: "Wire request latency, decode to reply enqueue, by op and codec.",
			Labels: []telemetry.Label{
				{Name: "op", Value: op},
				{Name: "codec", Value: codec.String()},
			},
			Key: "op/" + op + "/" + codec.String(),
		})
	}
	return &pair
}

// observeOp records one request's service latency.
func (m *metrics) observeOp(op string, codec wire.Codec, start time.Time) {
	pair, ok := m.opLat[op]
	if !ok {
		pair = &m.otherOp
	}
	pair[codec].Observe(telemetry.Since(start))
}

// registerServerFuncs wires the scrape-time views of state that lives
// outside the instrument set: registry size, live connections, queued
// frames, allocation-cache totals, process-level gauges, and the
// flight recorder's counters when tracing is on. Called once from New,
// after the server's components exist.
func (s *Server) registerServerFuncs() {
	reg := s.m.reg
	reg.NewGaugeFunc(telemetry.Opts{Name: "papid_sessions", Key: "sessions",
		Help: "Live sessions."}, func() float64 {
		return float64(s.reg.count())
	})
	reg.NewGaugeFunc(telemetry.Opts{Name: "papid_connections", Key: "connections",
		Help: "Open client connections."}, func() float64 {
		s.connsMu.Lock()
		n := len(s.conns)
		s.connsMu.Unlock()
		return float64(n)
	})
	reg.NewGaugeFunc(telemetry.Opts{Name: "papid_write_queue_frames",
		Help: "Frames currently queued across all per-connection write queues."},
		func() float64 {
			s.connsMu.Lock()
			conns := make([]*conn, 0, len(s.conns))
			for c := range s.conns {
				conns = append(conns, c)
			}
			s.connsMu.Unlock()
			total := 0
			for _, c := range conns {
				total += c.q.len()
			}
			return float64(total)
		})
	reg.NewCounterFunc(telemetry.Opts{Name: "papid_alloc_cache_hits_total", Key: "cache_hits",
		Help: "Allocation-cache hits."}, func() uint64 {
		hits, _ := s.cache.counters()
		return hits
	})
	reg.NewCounterFunc(telemetry.Opts{Name: "papid_alloc_cache_misses_total", Key: "cache_misses",
		Help: "Allocation-cache misses."}, func() uint64 {
		_, misses := s.cache.counters()
		return misses
	})
	reg.NewGaugeFunc(telemetry.Opts{Name: "papid_tick_workers",
		Help: "Configured parallel tick sweep width."}, func() float64 {
		return float64(s.cfg.TickWorkers)
	})
	reg.NewGaugeFunc(telemetry.Opts{Name: "papid_wal_queue_rows",
		Help: "Tick rows currently queued to the async WAL appender (0 when not durable)."},
		func() float64 {
			if s.histCh == nil {
				return 0
			}
			return float64(len(s.histCh))
		})
	reg.NewGaugeFunc(telemetry.Opts{Name: "papid_goroutines",
		Help: "Goroutines in the papid process."}, func() float64 {
		return float64(runtime.NumGoroutine())
	})
	start := time.Now()
	reg.NewGaugeFunc(telemetry.Opts{Name: "papid_uptime_seconds",
		Help: "Seconds since the server was built."}, func() float64 {
		return time.Since(start).Seconds()
	})
	if s.trc == nil {
		return
	}
	// Flight-recorder counters read straight from the tracer; like the
	// wal_* series on a durable server, they exist only when it does.
	reg.NewCounterFunc(telemetry.Opts{Name: "papid_traces_started_total", Key: "trace_started",
		Help: "Traced units started (ticks, requests, WAL batches)."}, func() uint64 {
		return s.trc.TracerStats().Started
	})
	reg.NewCounterFunc(telemetry.Opts{Name: "papid_traces_retained_total", Key: "trace_retained",
		Help: "Traces kept in the /tracez ring (head-sampled, slow, or errored)."}, func() uint64 {
		return s.trc.TracerStats().Retained
	})
	reg.NewCounterFunc(telemetry.Opts{Name: "papid_traces_kept_slow_total", Key: "trace_kept_slow",
		Help: "Traces tail-retained for exceeding the slow threshold."}, func() uint64 {
		return s.trc.TracerStats().KeptSlow
	})
	reg.NewCounterFunc(telemetry.Opts{Name: "papid_traces_kept_err_total", Key: "trace_kept_err",
		Help: "Traces tail-retained for carrying an error."}, func() uint64 {
		return s.trc.TracerStats().KeptErr
	})
}

// Command papidbench is gopapi's end-to-end benchmark: it builds on a
// papid binary from the checkout under test, starts it as a child
// process, drives it over loopback from this single generator process
// (at most two connections per workload), checks every answer it gets,
// and prints the end-to-end metrics — or, with -trace 1, the per-layer
// metrics from its own spans, papid's STATS and in-process replays of
// the workload's inputs through each layer. See README.md.
//
//	bash papidbench/run.sh --workload publish-fanout --seed 1 --seconds 30 --trace 0
//	bash papidbench/run.sh -compare old.json -with new.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// e2eMetrics are the gated end-to-end metrics, printed on every
// untraced run of every workload. latency_p50_us and rate_per_s name a
// different quantity per workload (README.md has the table); each
// workload's report also prints them under their specific names.
var e2eMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"latency_p50_us", "us"},
	{"rate_per_s", "1/s"},
	{"cpu_us_per_op", "us"},
	{"rss_mb", "MB"},
}

// layerMetrics are the per-layer metrics every traced run prints. A
// layer a workload bypasses reads 0 (for example wal.* on the RAM-only
// publish-fanout workload).
var layerMetrics = []struct{ name, unit string }{
	{"hwsim.run_ns", "ns"}, {"hwsim.alloc_bytes", "B"}, {"hwsim.instr_per_s", "1/s"},
	{"core.read_ns", "ns"}, {"core.session_create_ns", "ns"},
	{"server.tick_p50_us", "us"}, {"server.tick_p99_us", "us"},
	{"server.publish_dispatch_p50_us", "us"}, {"server.query_dispatch_p50_us", "us"},
	{"server.snapshots_dropped", "count"}, {"server.deltas_dropped", "count"},
	{"server.derived_dropped", "count"}, {"server.write_drops", "count"},
	{"server.keyframes_sent", "count"}, {"server.evictions", "count"},
	{"server.encode_failures", "count"}, {"server.tick_stalls", "count"},
	{"server.bytes_per_frame_json", "B"}, {"server.bytes_per_frame_binary", "B"},
	{"server.frame_ledger_residual", "count"},
	{"wire.encode_ns.snapshot.json", "ns"}, {"wire.encode_ns.snapshot.binary", "ns"},
	{"wire.encode_ns.delta.json", "ns"}, {"wire.encode_ns.delta.binary", "ns"},
	{"wire.encode_ns.derived.json", "ns"}, {"wire.encode_ns.derived.binary", "ns"},
	{"wire.encode_ns.reply.json", "ns"}, {"wire.encode_ns.reply.binary", "ns"},
	{"wire.decode_ns.snapshot.json", "ns"}, {"wire.decode_ns.snapshot.binary", "ns"},
	{"wire.decode_ns.delta.json", "ns"}, {"wire.decode_ns.delta.binary", "ns"},
	{"wire.frame_bytes.snapshot.json", "B"}, {"wire.frame_bytes.snapshot.binary", "B"},
	{"wire.frame_bytes.delta.json", "B"}, {"wire.frame_bytes.delta.binary", "B"},
	{"wire.frame_bytes.derived.json", "B"}, {"wire.frame_bytes.derived.binary", "B"},
	{"wire.frame_bytes.reply.json", "B"}, {"wire.frame_bytes.reply.binary", "B"},
	{"tsdb.append_batch_ns", "ns"}, {"tsdb.query_raw_ns", "ns"},
	{"tsdb.query_rollup_ns", "ns"}, {"tsdb.bytes_per_sample", "B"},
	{"wal.append_rows_ns", "ns"}, {"wal.fsyncs_per_s", "1/s"}, {"wal.write_errors", "count"},
	{"derive.engine_tick_ns", "ns"}, {"derive.eval_history_ns", "ns"},
	{"gen.lag_p99_us", "us"}, {"gen.cpu_us_per_op", "us"},
	{"gen.spans", "count"}, {"gen.trace_overhead_pct", "%"},
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string // checkout root: papid's sources
	papid    string // papid binary built from root
	work     string // scratch directory inside the checkout
}

// run is one workload execution: its report, its counters, and the
// inputs it generated (kept for the per-layer replays).
type run struct {
	cfg    config
	rep    *report
	spans  *spanRec // nil when untraced
	epoch  time.Time
	secs   float64 // measured seconds
	metric map[string]metric

	attempted atomic.Int64
	failed    atomic.Int64

	papidFlags []string
	inputs     replayInputs
}

func newRun(cfg config, secs float64, traced bool) *run {
	r := &run{cfg: cfg, rep: &report{}, epoch: time.Now(), secs: secs, metric: map[string]metric{}}
	if traced {
		r.spans = newSpanRec(r.epoch)
	}
	return r
}

// set records a metric for the final JSON line and the report.
func (r *run) set(name, unit string, v float64, note string) {
	r.metric[name] = metric{Value: v, Unit: unit}
	r.rep.add(name, unit, v, note)
}

// ns is t's offset from the run's epoch; PUBLISH payloads carry their
// due time this way so every frame can time itself.
func (r *run) ns(t time.Time) int64 { return t.Sub(r.epoch).Nanoseconds() }

var workloads = map[string]func(*run) error{
	"publish-fanout": runFanout,
	"live-tick":      runLiveTick,
	"durable-mixed":  runDurable,
}

func main() {
	var cfg config
	var trace int
	var cmpOld, cmpNew string
	var force bool
	flag.StringVar(&cfg.workload, "workload", "", "workload: publish-fanout, live-tick or durable-mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", 30, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 prints per-layer metrics instead of end-to-end ones")
	flag.StringVar(&cfg.root, "root", "..", "checkout root")
	flag.StringVar(&cfg.papid, "papid", "", "papid binary")
	flag.StringVar(&cfg.work, "work", "", "scratch directory")
	flag.StringVar(&cmpOld, "compare", "", "result file to compare -with another")
	flag.StringVar(&cmpNew, "with", "", "result file compared against -compare")
	flag.BoolVar(&force, "force", false, "compare results from different environments")
	flag.Parse()

	if cmpOld != "" {
		if err := compare(os.Stdout, cmpOld, cmpNew, force); err != nil {
			fmt.Fprintln(os.Stderr, "papidbench:", err)
			os.Exit(1)
		}
		return
	}
	cfg.trace = trace == 1
	if err := benchMain(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "papidbench:", err)
		os.Exit(1)
	}
}

func benchMain(cfg config, w io.Writer) error {
	fn, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.papid == "" || cfg.work == "" {
		return errors.New("-papid and -work are required (run through run.sh)")
	}
	if cfg.seconds < 4 {
		return errors.New("-seconds must be at least 4")
	}
	var main *run
	var out []struct{ name, unit string }
	if !cfg.trace {
		main = newRun(cfg, float64(cfg.seconds), false)
		if err := fn(main); err != nil {
			return err
		}
		out = e2eMetrics
	} else {
		// Half the time untraced as the reference, half traced; the
		// difference in the headline latency is the tracing overhead.
		half := float64(cfg.seconds) / 2
		ref := newRun(cfg, half, false)
		if err := fn(ref); err != nil {
			return err
		}
		main = newRun(cfg, half, true)
		if err := fn(main); err != nil {
			return err
		}
		lref, tr := ref.metric["latency_p50_us"].Value, main.metric["latency_p50_us"].Value
		main.set("gen.trace_overhead_pct", "%", 100*ratio(tr-lref, lref),
			fmt.Sprintf("latency_p50_us traced %.1f vs untraced %.1f", tr, lref))
		if err := replayLayers(main); err != nil {
			return err
		}
		main.set("gen.spans", "count", float64(main.spans.count()), fmt.Sprintf("%d dropped", main.spans.dropped))
		self, n := main.spans.selfTimes()
		names := make([]string, 0, len(self))
		for name := range self {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			main.rep.add("span."+name+".self_us", "us", float64(self[name])/float64(n[name])/1e3,
				fmt.Sprintf("mean self time over %d spans", n[name]))
		}
		spanPath := filepath.Join(cfg.work, "spans", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
		if err := main.spans.write(spanPath); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		main.rep.add("span_file", "", 0, spanPath)
		for _, l := range ref.rep.lines {
			main.rep.add("untraced."+l.Name, l.Unit, l.Value, l.Note)
		}
		out = layerMetrics
	}
	return emit(w, main, out)
}

// emit prints the report, writes the result file and prints the
// closing JSON line with exactly the metrics in names.
func emit(w io.Writer, r *run, names []struct{ name, unit string }) error {
	res := result{
		Workload: r.cfg.workload, Seed: r.cfg.seed, Seconds: r.cfg.seconds, Trace: r.cfg.trace,
		Env:       captureEnv(r.cfg.root, r.papidFlags),
		Attempted: r.attempted.Load(), Failed: r.failed.Load(),
		Metrics: map[string]metric{},
	}
	if res.Attempted < 1 {
		return errors.New("no request was attempted")
	}
	for _, m := range names {
		v, ok := r.metric[m.name]
		if !ok {
			v = metric{Value: 0, Unit: m.unit}
		}
		res.Metrics[m.name] = metric{Value: v.Value, Unit: m.unit}
	}
	r.rep.mu.Lock()
	res.Report = append([]line(nil), r.rep.lines...)
	res.Failures = append([]string(nil), r.rep.failures...)
	res.Flags = append([]string(nil), r.rep.flags...)
	nfail := r.rep.nfail
	r.rep.mu.Unlock()
	res.Correct = nfail == 0

	e := res.Env
	fmt.Fprintf(w, "papidbench workload=%s seed=%d seconds=%d trace=%v\n", res.Workload, res.Seed, res.Seconds, res.Trace)
	fmt.Fprintf(w, "env: GOMAXPROCS=%d nproc=%d cpu=%q go=%s commit=%s source=%s papid_flags=%q\n",
		e.GOMAXPROCS, e.NumCPU, e.CPUModel, e.GoVersion, e.Commit, e.Source, e.PapidFlags)
	for _, l := range res.Report {
		fmt.Fprintf(w, "  %-44s %16.4f %-6s %s\n", l.Name, l.Value, l.Unit, l.Note)
	}
	fmt.Fprintf(w, "requests: attempted=%d failed=%d (errors, timeouts and evictions)\n", res.Attempted, res.Failed)
	if res.Correct {
		fmt.Fprintln(w, "correctness: all checks passed")
	} else {
		fmt.Fprintf(w, "correctness: %d check(s) FAILED:\n", nfail)
		for _, f := range res.Failures {
			fmt.Fprintln(w, "  -", f)
		}
	}
	for _, f := range res.Flags {
		fmt.Fprintln(w, "UNTRUSTED:", f)
	}
	resPath := filepath.Join(r.cfg.work, "results",
		fmt.Sprintf("%s-seed%d-trace%d.json", res.Workload, res.Seed, btoi(res.Trace)))
	if b, err := json.MarshalIndent(res, "", " "); err == nil {
		if err := os.MkdirAll(filepath.Dir(resPath), 0o755); err == nil {
			if err := os.WriteFile(resPath, b, 0o644); err == nil {
				fmt.Fprintln(w, "result file:", resPath)
			}
		}
	}
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, `{"correct":%v,"attempted":%d,"failed":%d,"metrics":{`, res.Correct, res.Attempted, res.Failed)
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		v, _ := json.Marshal(res.Metrics[k])
		fmt.Fprintf(&b, "%q:%s", k, v)
	}
	b.WriteString("}}")
	fmt.Fprintln(w, b.String())
	return nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// setupMedian performs a workload's set-up k times — launching papid
// through the sessions and subscriptions being ready — tears down all
// but the last, and reports the median set-up time as setup_s.
func setupMedian[T any](r *run, k int, setup func() (T, error), teardown func(T)) (T, error) {
	var keep T
	times := make([]float64, 0, k)
	for i := 0; i < k; i++ {
		t0 := time.Now()
		st, err := setup()
		if err != nil {
			return keep, fmt.Errorf("setup %d: %w", i+1, err)
		}
		t1 := time.Now()
		times = append(times, t1.Sub(t0).Seconds())
		r.spans.add("setup", 0, t0, t1, -1)
		if i < k-1 {
			teardown(st)
		} else {
			keep = st
		}
	}
	r.set("setup_s", "s", median(times), fmt.Sprintf("median of %d set-ups", k))
	return keep, nil
}

// setupRuns is how many times each run sets its workload up.
const setupRuns = 7

// segWidth is the slice width for figures reported as the median of
// per-slice values.
const segWidth = time.Second

// statsOf fetches papid's STATS over c.
func statsOf(c *client) (wire.Response, error) {
	resp, _, err := statsAt(c)
	return resp, err
}

// statsAt fetches STATS and returns the time the request went out —
// papid reads its counters right after.
func statsAt(c *client) (wire.Response, time.Time, error) {
	cl := &call{due: time.Now()}
	c.send(&wire.Request{Op: wire.OpStats}, cl)
	<-cl.ch
	if cl.err != nil {
		return wire.Response{}, cl.sent, cl.err
	}
	if !cl.resp.OK {
		return cl.resp, cl.sent, fmt.Errorf("STATS: %s", cl.resp.Error)
	}
	return cl.resp, cl.sent, nil
}

// delta returns after−before for one STATS counter.
func delta(before, after wire.Response, key string) float64 {
	return float64(after.Stats[key]) - float64(before.Stats[key])
}

// impliedFrames is how many fan-out frames papid's own ledger says
// reached the subscriber's socket between two STATS replies:
// Σ(*_sent − *_dropped) − write_drops.
func impliedFrames(before, after wire.Response) float64 {
	return delta(before, after, "snapshots_sent") - delta(before, after, "snapshots_dropped") +
		delta(before, after, "deltas_sent") - delta(before, after, "deltas_dropped") +
		delta(before, after, "derived_sent") - delta(before, after, "derived_dropped") -
		delta(before, after, "write_drops")
}

// serverLayer records the per-layer metrics papid's STATS gives for
// the measured window: drop and failure counters, histogram quantiles
// and bytes per frame.
func (r *run) serverLayer(before, after wire.Response, window float64, pubCodec string) {
	for _, k := range []string{"snapshots_dropped", "deltas_dropped", "derived_dropped", "write_drops",
		"keyframes_sent", "evictions", "encode_failures", "tick_stalls"} {
		r.set("server."+k, "count", delta(before, after, k), "STATS delta")
	}
	h := after.Hists
	r.set("server.tick_p50_us", "us", float64(h["tick"].P50)/1e3, fmt.Sprintf("n=%d", h["tick"].Count))
	r.set("server.tick_p99_us", "us", float64(h["tick"].P99)/1e3, fmt.Sprintf("n=%d", h["tick"].Count))
	pub := h["op/PUBLISH/"+pubCodec]
	r.set("server.publish_dispatch_p50_us", "us", float64(pub.P50)/1e3, fmt.Sprintf("n=%d", pub.Count))
	q := h["op/QUERY/json"]
	r.set("server.query_dispatch_p50_us", "us", float64(q.P50)/1e3, fmt.Sprintf("n=%d", q.Count))
	r.set("server.bytes_per_frame_json", "B",
		ratio(delta(before, after, "bytes_sent_json"), delta(before, after, "frames_sent_json")), "")
	r.set("server.bytes_per_frame_binary", "B",
		ratio(delta(before, after, "bytes_sent_binary"), delta(before, after, "frames_sent_binary")), "")
	r.set("wal.fsyncs_per_s", "1/s", delta(before, after, "wal_fsyncs")/window, "STATS delta")
	r.set("wal.write_errors", "count", delta(before, after, "wal_write_errors"), "STATS delta")
}

// ledger reports frames received minus what papid's STATS implies,
// over a window that starts before the first subscription and ends
// after the stream drained.
func (r *run) ledger(before, after wire.Response, received float64) {
	implied := impliedFrames(before, after)
	r.set("server.frame_ledger_residual", "count", received-implied,
		fmt.Sprintf("received %.0f, STATS implies %.0f", received, implied))
}

// usage records papid's CPU per operation (cpuNote says how it was
// taken), its peak RSS, and the generator's own CPU per operation.
func (r *run) usage(p *papidProc, cpuPerOp float64, cpuNote string, gen time.Duration, ops float64) {
	r.set("cpu_us_per_op", "us", cpuPerOp, cpuNote)
	if rss, err := p.peakRSSMB(); err == nil {
		r.set("rss_mb", "MB", rss, "papid VmHWM")
	} else {
		r.rep.fail("read papid RSS: %v", err)
	}
	r.set("gen.cpu_us_per_op", "us", ratio(float64(gen.Microseconds()), ops), "generator CPU")
}

// calm picks the slices of seg the hypervisor left alone (see
// pickCalm), applies the same choice to others, which share seg's
// slices, and reports the steal share and the slices kept.
func (r *run) calm(label string, seg *segments, others ...*segments) {
	share, kept := seg.pickCalm()
	for _, o := range others {
		o.use = seg.use
	}
	r.rep.add("host.steal_pct."+label, "%", 100*share,
		fmt.Sprintf("%d of %d slices kept (steal <= %.0f%%, else the calmest half)", kept, len(seg.count), 100*calmShare))
}

// lagCheck reports the generator's own schedule lag and flags the run
// when it fell behind by more than limit at p99.
func (r *run) lagCheck(o *openLoop, limit time.Duration) {
	sum := summarize(&o.lag)
	r.set("gen.lag_p99_us", "us", float64(quantile(o.lag.sorted(), 0.99))/1e3,
		fmt.Sprintf("n=%d max=%.0fus", sum.N, sum.Max))
	if p99 := time.Duration(quantile(o.lag.sorted(), 0.99)); p99 > limit {
		r.rep.flag("generator fell behind its schedule: lag p99 %v > %v", p99, limit)
	}
}

// waitQuiet waits until c has received no fan-out frame for quiet, or
// max has passed — the stream has drained.
func waitQuiet(c *client, quiet, max time.Duration) {
	deadline := time.Now().Add(max)
	last := c.frames.Load()
	for time.Now().Before(deadline) {
		time.Sleep(quiet)
		n := c.frames.Load()
		if n == last {
			return
		}
		last = n
	}
}

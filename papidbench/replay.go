package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/derive"
	"repro/internal/telemetry"
	"repro/internal/tsdb"
	"repro/internal/tsdb/wal"
	"repro/internal/wire"
	"repro/papi"
	"repro/workload"
)

// replayInputs is what a workload generated, kept so the traced run
// can replay it through each layer's exported functions in process.
type replayInputs struct {
	rows  []wal.Row     // published rows, send order; empty for live-tick
	reply wire.Response // the workload's typical request reply
	hw    *hwReplay     // live-tick's own verification replay, if any
}

// hwReplay is one live-tick session replayed in process: counter
// values after each tick, and what the hwsim and core calls cost.
type hwReplay struct {
	events     []string
	vals       [][]int64 // vals[k] is the reading of tick k+1 (seq k+1)
	runNS      int64     // total ns in Thread.Run
	readNS     int64     // total ns in EventSet.Read
	allocBytes uint64    // heap bytes allocated across the ticks
	instr      int64     // instructions retired (PAPI_TOT_INS) across the ticks
}

// replayHW replays a live-tick session for ticks ticks: the same
// platform, events, workload and per-tick Run, Read and RealUsec stamp
// papid's tick sweep performs (reading the timer costs simulated
// cycles too), so tick k's reading is exactly what papid publishes as
// seq k.
func replayHW(events []string, ticks int, spans *spanRec) (*hwReplay, error) {
	t0 := time.Now()
	sys, err := papi.Init(papi.Options{Platform: "aix-power3"})
	if err != nil {
		return nil, err
	}
	th := sys.Main()
	es := th.NewEventSet()
	for _, name := range events {
		ev, ok := papi.ResolveEvent(sys, name)
		if !ok {
			return nil, fmt.Errorf("unknown event %s", name)
		}
		if err := es.Add(ev); err != nil {
			return nil, err
		}
	}
	prog, err := workload.ByName(ltWorkload, ltN)
	if err != nil {
		return nil, err
	}
	if err := es.Start(); err != nil {
		return nil, err
	}
	h := &hwReplay{events: events, vals: make([][]int64, ticks)}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for k := 0; k < ticks; k++ {
		a := time.Now()
		prog.Reset()
		th.Run(prog)
		b := time.Now()
		v := make([]int64, len(events))
		if err := es.Read(v); err != nil {
			return nil, err
		}
		c := time.Now()
		th.RealUsec()
		h.runNS += b.Sub(a).Nanoseconds()
		h.readNS += c.Sub(b).Nanoseconds()
		h.vals[k] = v
	}
	runtime.ReadMemStats(&ms1)
	h.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	if i := slices.Index(events, "PAPI_TOT_INS"); i >= 0 && ticks > 0 {
		h.instr = h.vals[ticks-1][i]
	}
	spans.add("replay.hwsim", 2, t0, time.Now(), -1)
	return h, nil
}

// timeIt runs f n times and returns the mean ns per call.
func timeIt(n int, f func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// replayLayers measures each layer on the workload's own inputs, in
// process and through its exported functions, and records the
// per-layer metrics. Each replay is wrapped in a span.
func replayLayers(r *run) error {
	in := &r.inputs
	span := func(name string, f func() error) error {
		t0 := time.Now()
		err := f()
		r.spans.add("replay."+name, 2, t0, time.Now(), -1)
		return err
	}

	// hwsim and core: live-tick's session shape, the only workload that
	// drives hwsim; the others report the same replay, expecting no
	// change there.
	hw := in.hw
	const hwTicks = 400
	if hw == nil || len(hw.vals) < hwTicks {
		var err error
		if hw, err = replayHW(ltEvents, hwTicks, r.spans); err != nil {
			return err
		}
	}
	n := float64(len(hw.vals))
	r.set("hwsim.run_ns", "ns", float64(hw.runNS)/n, fmt.Sprintf("Thread.Run, %d ticks", len(hw.vals)))
	r.set("hwsim.alloc_bytes", "B", float64(hw.allocBytes)/n, "heap bytes per tick")
	r.set("hwsim.instr_per_s", "1/s", ratio(float64(hw.instr), float64(hw.runNS)/1e9), "simulated instructions per second of Run")
	r.set("core.read_ns", "ns", float64(hw.readNS)/n, "EventSet.Read")
	if err := span("core.create", func() error {
		var errc error
		ns := timeIt(64, func(int) {
			sys, err := papi.Init(papi.Options{Platform: "aix-power3"})
			if err != nil {
				errc = err
				return
			}
			es := sys.Main().NewEventSet()
			for _, name := range ltEvents {
				ev, _ := papi.ResolveEvent(sys, name)
				if err := es.Add(ev); err != nil {
					errc = err
				}
			}
		})
		r.set("core.session_create_ns", "ns", ns, "papi.Init + NewEventSet + 4 Add")
		return errc
	}); err != nil {
		return err
	}

	rows := in.rows
	if len(rows) == 0 {
		for k, v := range hw.vals {
			rows = append(rows, wal.Row{Session: 1, TS: int64(k) * 10_000, Events: hw.events, Vals: v})
		}
	}
	// Workloads whose rows lack ipc's counters (publish-fanout) run the
	// derive layer on live-tick's rows.
	deriveRows := rows
	if !slices.Contains(rows[0].Events, "PAPI_TOT_INS") || !slices.Contains(rows[0].Events, "PAPI_TOT_CYC") {
		deriveRows = nil
		for k, v := range hw.vals {
			deriveRows = append(deriveRows, wal.Row{Session: 1, TS: int64(k) * 10_000, Events: hw.events, Vals: v})
		}
	}

	// tsdb: append every row, then query each session the way the
	// workload does (raw 2 s and 60 s at a 1 s step).
	store := tsdb.New(tsdb.Config{})
	if err := span("tsdb", func() error {
		r.set("tsdb.append_batch_ns", "ns", timeIt(len(rows), func(i int) {
			w := rows[i]
			store.AppendBatch(w.Session, w.TS, w.Events, w.Vals)
		}), fmt.Sprintf("%d rows of %d events", len(rows), len(rows[0].Events)))
		st := store.Stats()
		r.set("tsdb.bytes_per_sample", "B", ratio(float64(st.Bytes), float64(st.Samples)), fmt.Sprintf("%d samples", st.Samples))
		sessions := sessionsOf(rows)
		last := rows[len(rows)-1].TS
		r.set("tsdb.query_raw_ns", "ns", timeIt(4*len(sessions), func(i int) {
			store.Query(sessions[i%len(sessions)], tsdb.Query{From: last - 2_000_000, To: last + 1})
		}), "2 s raw window")
		r.set("tsdb.query_rollup_ns", "ns", timeIt(4*len(sessions), func(i int) {
			store.Query(sessions[i%len(sessions)], tsdb.Query{From: last - 60_000_000, To: last + 1, Step: 1_000_000})
		}), "60 s window, 1 s step")
		return nil
	}); err != nil {
		return err
	}

	// wal: journal the rows through a fresh log in the default
	// interval-fsync mode, in batches like papid's appender.
	if err := span("wal", func() error {
		dir, err := os.MkdirTemp(r.cfg.work, "replay-wal-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		l, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{CompactEvery: -1})
		if err != nil {
			return err
		}
		if _, err := l.Start(tsdb.New(tsdb.Config{Storage: l})); err != nil {
			return err
		}
		const batch = 64
		t0 := time.Now()
		for i := 0; i < len(rows); i += batch {
			if err := l.AppendRows(rows[i:min(i+batch, len(rows))]); err != nil {
				return err
			}
		}
		r.set("wal.append_rows_ns", "ns", float64(time.Since(t0).Nanoseconds())/float64(len(rows)), "per row, batches of 64")
		return l.Close()
	}); err != nil {
		return err
	}

	// wire: the workload's frames in both codecs.
	if err := span("wire", func() error { return replayWire(r, rows) }); err != nil {
		return err
	}

	// derive: the engine over every row, and history evaluation over
	// a raw query of each session.
	return span("derive", func() error {
		reg := derive.NewRegistry()
		eng := derive.NewEngine(reg, nil, telemetry.Discard(), nil)
		groups := []string{"ipc"}
		emitted := 0
		r.set("derive.engine_tick_ns", "ns", timeIt(len(deriveRows), func(i int) {
			w := deriveRows[i]
			eng.Tick(w.Session, w.Events, w.Vals, w.TS, groups, func(_, _ []string, _ []float64) { emitted++ })
		}), fmt.Sprintf("%d ticks, %d emitted", len(deriveRows), emitted))
		g, err := reg.Resolve(groups)
		if err != nil {
			return err
		}
		hstore := tsdb.New(tsdb.Config{})
		for _, w := range deriveRows {
			hstore.AppendBatch(w.Session, w.TS, w.Events, w.Vals)
		}
		sessions := sessionsOf(deriveRows)
		series := make([][]tsdb.Series, len(sessions))
		for i, s := range sessions {
			series[i] = hstore.Query(s, tsdb.Query{From: 0, To: deriveRows[len(deriveRows)-1].TS + 1})
		}
		r.set("derive.eval_history_ns", "ns", timeIt(4*len(sessions), func(i int) {
			derive.EvalHistory(g, series[i%len(series)])
		}), "raw history of one session")
		return nil
	})
}

func sessionsOf(rows []wal.Row) []uint64 {
	var out []uint64
	for _, w := range rows {
		if !slices.Contains(out, w.Session) {
			out = append(out, w.Session)
		}
	}
	return out
}

// replayWire encodes the workload's SNAPSHOT, DELTA, DERIVED and reply
// frames with wire.AppendFrame in both codecs, and decodes snapshot and
// delta streams with wire.Decoder, reassembling deltas with
// wire.DeltaTracker.
func replayWire(r *run, rows []wal.Row) error {
	in := &r.inputs
	snaps := make([]wire.Response, len(rows))
	deltas := make([]wire.Response, 0, len(rows))
	var keys []wire.Response
	last := map[uint64]wire.Response{}
	for i, w := range rows {
		snaps[i] = wire.Response{Op: wire.OpSnapshot, OK: true, Session: w.Session, Seq: uint64(i + 1),
			Events: w.Events, Values: w.Vals, Source: "published"}
		if k, ok := last[w.Session]; ok {
			d := wire.Response{Op: wire.OpDelta, OK: true, Session: w.Session, Seq: uint64(i + 1), Base: k.Seq}
			for j, v := range w.Vals {
				if v != k.Values[j] {
					d.Idx = append(d.Idx, uint32(j))
					d.Values = append(d.Values, v)
				}
			}
			deltas = append(deltas, d)
		} else {
			last[w.Session] = snaps[i]
			keys = append(keys, snaps[i])
		}
	}
	derived := wire.Response{Op: wire.OpDerived, OK: true, Session: rows[0].Session, Seq: 7,
		Metrics: []string{"ipc"}, Units: []string{"instr/cycle"}, DValues: []float64{1.2345678}}
	frames := map[string][]wire.Response{
		"snapshot": snaps, "delta": deltas, "derived": {derived}, "reply": {in.reply},
	}
	for _, codec := range []wire.Codec{wire.CodecJSON, wire.CodecBinary} {
		for _, kind := range []string{"snapshot", "delta", "derived", "reply"} {
			fs := frames[kind]
			if len(fs) == 0 {
				continue
			}
			var buf []byte
			var err error
			var bytesTotal int
			n := max(len(fs), 2000)
			ns := timeIt(n, func(i int) {
				buf, err = wire.AppendFrame(buf[:0], codec, &fs[i%len(fs)])
				bytesTotal += len(buf)
			})
			if err != nil {
				return fmt.Errorf("encode %s: %w", kind, err)
			}
			r.set("wire.encode_ns."+kind+"."+codec.String(), "ns", ns, "")
			r.set("wire.frame_bytes."+kind+"."+codec.String(), "B", float64(bytesTotal)/float64(n), "")
		}
		for _, kind := range []string{"snapshot", "delta"} {
			fs := frames[kind]
			if kind == "delta" {
				// A delta stream as a subscriber sees it: keyframes first.
				fs = append(slices.Clone(keys), deltas...)
			}
			if len(fs) == 0 {
				continue
			}
			var stream []byte
			for i := range fs {
				var err error
				if stream, err = wire.AppendFrame(stream, codec, &fs[i]); err != nil {
					return err
				}
			}
			dec := wire.NewDecoder(bytes.NewReader(stream))
			dec.SetCodec(codec)
			var tr wire.DeltaTracker
			var derr error
			ns := timeIt(len(fs), func(int) {
				var resp wire.Response
				if err := dec.Decode(&resp); err != nil {
					derr = err
					return
				}
				if _, err := tr.Apply(resp); err != nil {
					derr = err
				}
			})
			if derr != nil {
				return fmt.Errorf("decode %s: %w", kind, derr)
			}
			r.set("wire.decode_ns."+kind+"."+codec.String(), "ns", ns, fmt.Sprintf("%d frames", len(fs)))
		}
	}
	return nil
}

package main

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/tsdb"
	"repro/internal/tsdb/wal"
	"repro/internal/wire"
)

// durable-mixed: papid with a WAL (-data-dir, default -fsync interval),
// 64 sessions of 16 preset-named counters published open loop at 2000/s
// over binary, and one JSON connection running closed-loop QUERY beside
// it: raw 2 s windows, 60 s windows at a 1 s step, and derive-mode ipc.
// No fan-out and no hwsim: appends and queries share tsdb and the WAL.
const (
	dmSessions = 64
	dmRate     = 2000.0
	dmInFlight = 32
	dmKeepRows = 64 // rows per session kept for the per-layer replay
	// clockSlack bounds how far papid's row timestamps (its wall clock
	// at dispatch) may sit outside the generator's send..ack interval.
	clockSlack = 100 * time.Millisecond
)

var dmEvents = []string{
	"PAPI_TOT_INS", "PAPI_TOT_CYC", "PAPI_L1_DCM", "PAPI_L1_ICM", "PAPI_L2_DCM", "PAPI_L2_ICM",
	"PAPI_L2_TCM", "PAPI_L2_TCA", "PAPI_FP_INS", "PAPI_FP_OPS", "PAPI_LD_INS", "PAPI_SR_INS",
	"PAPI_BR_INS", "PAPI_BR_MSP", "PAPI_TLB_DM", "PAPI_L1_DCA",
}

const (
	dmIns = 0 // index of PAPI_TOT_INS in dmEvents
	dmCyc = 1 // index of PAPI_TOT_CYC: strictly increasing, so it names its row
)

// Query kinds.
const (
	qRaw = iota
	qRollup
	qDerive
	nQueryKinds
)

var queryNames = [nQueryKinds]string{"raw", "rollup", "derive"}

type dmSess struct {
	id  uint64
	rng *rand.Rand // publisher goroutine only
	chg [16]float64

	mu     sync.RWMutex
	rows   [][]int64
	sendUs []int64 // wall-clock µs when each row was sent
	ackUs  []int64 // wall-clock µs when each row was acked; 0 until then
	acked  int     // rows acked so far (acks arrive in order)
}

func (s *dmSess) nextRow() []int64 {
	row := slices.Clone(s.rows[len(s.rows)-1])
	row[dmIns] += 1 + s.rng.Int63n(1<<20)
	row[dmCyc] += 1 + s.rng.Int63n(1<<21)
	for j := 2; j < len(dmEvents); j++ {
		if s.rng.Float64() < s.chg[j] {
			row[j] += 1 + s.rng.Int63n(1<<16)
		}
	}
	return row
}

// rowOfCyc finds the row whose PAPI_TOT_CYC is v. Callers hold mu.
func (s *dmSess) rowOfCyc(v int64) (int, bool) {
	i := sort.Search(len(s.rows), func(i int) bool { return s.rows[i][dmCyc] >= v })
	return i, i < len(s.rows) && s.rows[i][dmCyc] == v
}

type durable struct {
	r      *run
	p      *papidProc
	pub, q *client
	dir    string
	sess   []*dmSess
	qRng   *rand.Rand // query choices, querier goroutine only
	oRng   *rand.Rand // session order, publisher goroutine only
	before wire.Response

	measureFrom time.Time
	ackSeg      *segments // acks by due time, with papid CPU per slice
	qSeg        *segments // queries by completion time
	ackLat      samples
	acked       atomic.Int64
	qLat        [nQueryKinds]samples
	qAll        samples
	queries     atomic.Int64
	torn        atomic.Int64 // answers showing an in-flight row in only some series
	sem         chan struct{}
	firstErr    atomic.Value
}

func newDurable(r *run, k int) *durable {
	rng := rand.New(rand.NewSource(r.cfg.seed))
	d := &durable{r: r, sem: make(chan struct{}, dmInFlight),
		dir: fmt.Sprintf("%s/data/durable-%d-%d", r.cfg.work, os.Getpid(), k)}
	probs := []float64{0.9, 0.5, 0.1}
	for i := 0; i < dmSessions; i++ {
		s := &dmSess{rng: rand.New(rand.NewSource(rng.Int63()))}
		row := make([]int64, len(dmEvents))
		for j := range row {
			row[j] = rng.Int63n(1 << 30)
			s.chg[j] = probs[rng.Intn(len(probs))]
		}
		s.rows = [][]int64{row}
		d.sess = append(d.sess, s)
	}
	d.qRng = rand.New(rand.NewSource(rng.Int63()))
	d.oRng = rand.New(rand.NewSource(rng.Int63()))
	return d
}

func (d *durable) setup() error {
	if err := os.RemoveAll(d.dir); err != nil {
		return err
	}
	d.r.papidFlags = []string{"-data-dir", "<fresh temporary directory>"}
	p, err := startPapid(d.r.cfg.papid, []string{"-data-dir", d.dir})
	if err != nil {
		return err
	}
	d.p = p
	if d.pub, err = dial(p.addr, true, nil); err != nil {
		return err
	}
	if d.q, err = dial(p.addr, false, nil); err != nil {
		return err
	}
	d.pub.spans, d.pub.lane = d.r.spans, 1
	d.q.spans, d.q.lane = d.r.spans, 3
	reqs := make([]wire.Request, dmSessions)
	for i := range reqs {
		reqs[i] = wire.Request{Op: wire.OpCreate, Workload: "none", Label: fmt.Sprintf("dm-%02d", i)}
	}
	resps, err := d.pub.pipeline(reqs, dmInFlight)
	if err != nil {
		return err
	}
	now := time.Now().UnixMicro()
	for i, s := range d.sess {
		s.id = resps[i].Session
		s.sendUs = []int64{now}
		reqs[i] = wire.Request{Op: wire.OpPublish, Session: s.id, Events: dmEvents, Values: s.rows[0]}
	}
	if resps, err = d.pub.pipeline(reqs, dmInFlight); err != nil {
		return err
	}
	now = time.Now().UnixMicro()
	for i, s := range d.sess {
		if resps[i].Seq != 1 {
			return fmt.Errorf("first PUBLISH to session %d got seq %d", s.id, resps[i].Seq)
		}
		s.ackUs, s.acked = []int64{now}, 1
	}
	d.before, err = statsOf(d.q)
	return err
}

func (d *durable) teardown() {
	if d.pub != nil {
		d.pub.close()
	}
	if d.q != nil {
		d.q.close()
	}
	if d.p != nil {
		if err := d.p.stop(); err != nil {
			d.r.rep.fail("papid shutdown: %v", err)
		}
	}
	_ = os.RemoveAll(d.dir)
}

// publish sends s's next row due at due, waiting for an in-flight slot.
func (d *durable) publish(s *dmSess, due time.Time) {
	d.sem <- struct{}{}
	s.mu.Lock()
	row := s.nextRow()
	s.rows = append(s.rows, row)
	s.sendUs = append(s.sendUs, time.Now().UnixMicro())
	s.ackUs = append(s.ackUs, 0)
	idx := len(s.rows) - 1
	s.mu.Unlock()
	d.r.attempted.Add(1)
	d.pub.send(&wire.Request{Op: wire.OpPublish, Session: s.id, Values: row},
		&call{due: due, done: func(c *call) { d.onAck(c, s, idx) }})
}

func (d *durable) onAck(c *call, s *dmSess, idx int) {
	<-d.sem
	if c.err != nil || !c.resp.OK {
		d.r.failed.Add(1)
		if c.err != nil {
			d.firstErr.CompareAndSwap(nil, c.err.Error())
		} else {
			d.firstErr.CompareAndSwap(nil, c.resp.Error)
		}
		return
	}
	if c.resp.Seq != uint64(idx+1) {
		d.r.rep.fail("PUBLISH to session %d acked seq %d, expected %d", s.id, c.resp.Seq, idx+1)
	}
	s.mu.Lock()
	s.ackUs[idx] = c.at.UnixMicro()
	s.acked = idx + 1
	s.mu.Unlock()
	if !c.due.Before(d.measureFrom) {
		lat := c.at.Sub(c.due).Nanoseconds()
		d.ackLat.add(lat)
		d.acked.Add(1)
		d.ackSeg.add(c.due, lat)
	}
	if d.r.spans != nil {
		root := d.r.spans.add("publish", 1, c.due, c.at, -1)
		d.r.spans.add("publish.queued", 1, c.due, c.sent, root)
		d.r.spans.add("publish.ack", 1, c.sent, c.at, root)
	}
}

// queryJob is one answered QUERY waiting to be checked.
type queryJob struct {
	kind      int
	s         *dmSess
	req       wire.Request
	resp      wire.Response
	lastAcked int // rows of s acked before the query was sent
}

// queryLoop runs closed-loop QUERY until end, handing each answer to
// check on another goroutine so checking does not slow the loop.
func (d *durable) queryLoop(end time.Time, jobs chan<- queryJob) {
	defer close(jobs)
	for time.Now().Before(end) {
		kind := d.qRng.Intn(nQueryKinds)
		s := d.sess[d.qRng.Intn(dmSessions)]
		s.mu.RLock()
		lastAcked := s.acked
		s.mu.RUnlock()
		now := time.Now().UnixMicro()
		req := wire.Request{Op: wire.OpQuery, Session: s.id, From: now - 2_000_000, To: now + 1_000_000}
		switch kind {
		case qRaw, qRollup:
			// A dashboard asks for a few counters, not all 16: the
			// cycle counter (it names the rows) and three seeded others.
			req.Events = []string{dmEvents[dmCyc]}
			for _, i := range d.qRng.Perm(len(dmEvents) - 2)[:3] {
				req.Events = append(req.Events, dmEvents[i+2])
			}
			if kind == qRollup {
				req.From, req.Step = now-60_000_000, 1_000_000
			}
		case qDerive:
			req.Derive = []string{"ipc"}
		}
		cl := &call{due: time.Now(), span: "query." + queryNames[kind]}
		d.r.attempted.Add(1)
		d.q.send(&req, cl)
		<-cl.ch
		if cl.err != nil || !cl.resp.OK {
			d.r.failed.Add(1)
			if cl.err != nil {
				d.firstErr.CompareAndSwap(nil, cl.err.Error())
				return
			}
			d.firstErr.CompareAndSwap(nil, cl.resp.Error)
			continue
		}
		lat := cl.at.Sub(cl.sent).Nanoseconds()
		d.qLat[kind].add(lat)
		d.qAll.add(lat)
		d.queries.Add(1)
		d.qSeg.add(cl.at, lat)
		jobs <- queryJob{kind: kind, s: s, req: req, resp: cl.resp, lastAcked: lastAcked}
	}
}

// check verifies one QUERY answer against the generator's record of
// what it published, recomputing rollups and derived values from it.
func (d *durable) check(j queryJob) {
	s := j.s
	s.mu.RLock()
	defer s.mu.RUnlock()
	fail := func(format string, args ...any) {
		d.r.rep.fail("QUERY %s session %d: %s", queryNames[j.kind], s.id, fmt.Sprintf(format, args...))
	}
	switch j.kind {
	case qRaw, qRollup:
		if len(j.resp.Series) != len(j.req.Events) {
			fail("%d series, want %d", len(j.resp.Series), len(j.req.Events))
			return
		}
		byEvent := map[string]tsdb.Series{}
		for _, sr := range j.resp.Series {
			byEvent[sr.Event] = sr
		}
		cyc := byEvent["PAPI_TOT_CYC"].Buckets
		// The cycle counter's Last names the final row of each bucket,
		// and Count how many rows precede it in that bucket.
		ends := make([]int, len(cyc))
		for k, b := range cyc {
			i, ok := s.rowOfCyc(b.Last)
			if !ok {
				fail("bucket at %d: PAPI_TOT_CYC %d was never published", b.Start, b.Last)
				return
			}
			ends[k] = i
			first := i - int(b.Count) + 1
			if k > 0 && first != ends[k-1]+1 || k == 0 && first < 0 {
				fail("bucket at %d holds rows %d..%d, previous ended at row %d", b.Start, first, i, ends[max(k-1, 0)])
				return
			}
			if j.kind == qRaw && (b.Count != 1 || b.Start < s.sendUs[i]-clockSlack.Microseconds() ||
				s.ackUs[i] != 0 && b.Start > s.ackUs[i]+clockSlack.Microseconds()) {
				fail("raw sample of row %d at %dus, count %d; sent at %dus, acked at %dus",
					i, b.Start, b.Count, s.sendUs[i], s.ackUs[i])
				return
			}
			if j.kind == qRollup && (b.Start%j.req.Step != 0 || k > 0 && b.Start <= cyc[k-1].Start) {
				fail("bucket start %d off the %d grid or out of order", b.Start, j.req.Step)
				return
			}
		}
		firstRow, lastRow := -1, -1
		if len(ends) > 0 {
			firstRow, lastRow = ends[0]-int(cyc[0].Count)+1, ends[len(ends)-1]
		}
		// Every series must be the same run of rows, bucketed the same
		// way, with exactly the published values. A QUERY reads each
		// series on its own, so a row papid is still appending may show
		// in some series and not yet in others; rows acked before the
		// query are checked present in every series by checkBounds.
		torn := false
		for _, name := range j.req.Events {
			e := slices.Index(dmEvents, name)
			bs := byEvent[name].Buckets
			row := firstRow
			if row < 0 {
				row = 0
			}
			for k, b := range bs {
				if k < len(cyc) && k < len(bs)-1 && b.Start != cyc[k].Start {
					fail("%s bucket %d starts at %d, PAPI_TOT_CYC's at %d", name, k, b.Start, cyc[k].Start)
					return
				}
				if row+int(b.Count) > len(s.rows) {
					fail("%s bucket %+v holds rows never published", name, b)
					return
				}
				want := tsdb.Bucket{Start: b.Start}
				for i := row; i < row+int(b.Count); i++ {
					v := s.rows[i][e]
					if want.Count == 0 || v < want.Min {
						want.Min = v
					}
					if want.Count == 0 || v > want.Max {
						want.Max = v
					}
					want.Sum += v
					want.Last = v
					want.Count++
				}
				if b != want {
					fail("%s bucket %+v, recomputed %+v", name, b, want)
					return
				}
				row += int(b.Count)
			}
			if row-1 != lastRow {
				torn = true
				if row-1 < j.lastAcked-1 || lastRow < j.lastAcked-1 {
					fail("%s ends at row %d, PAPI_TOT_CYC at row %d, row %d was acked before the query",
						name, row-1, lastRow, j.lastAcked-1)
					return
				}
			}
		}
		if torn {
			d.torn.Add(1)
		}
		d.checkBounds(j, firstRow, lastRow, fail)
	case qDerive:
		ds := j.resp.Derived
		if len(ds) != len(ipcMetrics) || ds[0].Metric != ipcMetrics[0] || ds[1].Metric != ipcMetrics[1] ||
			len(ds[0].Points) != len(ds[1].Points) {
			fail("derived series %+v, want %v", ds, ipcMetrics)
			return
		}
		pts, mips := ds[0].Points, ds[1].Points
		if len(pts) == 0 {
			d.checkBounds(j, -1, -1, fail)
			return
		}
		// Each point closes one row; find the first by its timestamp
		// and value, then every later point must close the next row.
		slack := clockSlack.Microseconds()
		r0 := -1
		for i := 1; i < len(s.rows); i++ {
			if pts[0].Start >= s.sendUs[i]-slack && (s.ackUs[i] == 0 || pts[0].Start <= s.ackUs[i]+slack) &&
				dmIPC(s.rows, i) == pts[0].Value {
				r0 = i
				break
			}
		}
		if r0 < 0 {
			fail("first point %+v matches no published row", pts[0])
			return
		}
		for k, pt := range pts {
			i := r0 + k
			if i >= len(s.rows) || pt.Value != dmIPC(s.rows, i) || mips[k].Start != pt.Start {
				fail("point %d %+v: recomputed ipc of row %d differs", k, pt, i)
				return
			}
			// mips is rate(PAPI_TOT_INS)/1e6 over the spacing of the
			// row timestamps, which the answer itself carries.
			if k > 0 {
				dt := float64(pt.Start-pts[k-1].Start) / 1e6
				want := float64(s.rows[i][dmIns]-s.rows[i-1][dmIns]) / dt / 1e6
				if mips[k].Value != want {
					fail("point %d: mips %v, recomputed %v", k, mips[k].Value, want)
					return
				}
			}
		}
		d.checkBounds(j, r0-1, r0+len(pts)-1, fail)
	}
}

// dmIPC recomputes ipc over the interval closing at row i.
func dmIPC(rows [][]int64, i int) float64 {
	return ipc(rows[i][dmIns]-rows[i-1][dmIns], rows[i][dmCyc]-rows[i-1][dmCyc])
}

// checkBounds checks a window's answer holds every row it must: the
// last row acked before the query, and no row before firstRow that was
// sent after the window opened. firstRow/lastRow are -1 for an empty
// answer. Callers hold s.mu.
func (d *durable) checkBounds(j queryJob, firstRow, lastRow int, fail func(string, ...any)) {
	s := j.s
	slack := clockSlack.Microseconds()
	if la := j.lastAcked - 1; la >= 0 && s.sendUs[la] > j.req.From+slack && lastRow < la {
		fail("answer ends at row %d, but row %d was acked before the query", lastRow, la)
	}
	prev := firstRow - 1
	if firstRow < 0 {
		prev = j.lastAcked - 1
	}
	if prev >= 0 && s.sendUs[prev] > j.req.From+slack {
		fail("answer starts at row %d, but row %d was sent inside the window", firstRow, prev)
	}
}

func runDurable(r *run) error {
	k := 0
	d, err := setupMedian(r, setupRuns, func() (*durable, error) {
		k++
		d := newDurable(r, k)
		if err := d.setup(); err != nil {
			d.teardown()
			return nil, err
		}
		return d, nil
	}, (*durable).teardown)
	if err != nil {
		return err
	}
	defer d.teardown()

	warm := time.Second
	dur := time.Duration(r.secs * float64(time.Second))
	start := time.Now().Add(10 * time.Millisecond)
	d.measureFrom = start.Add(warm)
	d.ackSeg = newSegments(d.measureFrom, segWidth, dur)
	d.qSeg = newSegments(d.measureFrom, segWidth, dur)
	order := func() func(i int) *dmSess {
		var perm []int
		return func(i int) *dmSess {
			if i%dmSessions == 0 {
				perm = d.oRng.Perm(dmSessions)
			}
			return d.sess[perm[i%dmSessions]]
		}
	}()
	ol := &openLoop{rate: dmRate}
	pubDone := make(chan struct{})
	go func() {
		defer close(pubDone)
		ol.run(start, warm+dur, func(i int, due time.Time) { d.publish(order(i), due) })
	}()

	cpuErr := make(chan error, 1)
	go func() { cpuErr <- d.ackSeg.sampleCPU(d.p) }()
	time.Sleep(time.Until(d.measureFrom))
	gen0 := genCPU()
	tq := time.Now()
	jobs := make(chan queryJob, 4096) // the checker may lag a burst; it catches up
	checked := make(chan int)
	go func() {
		n := 0
		for j := range jobs {
			d.check(j)
			n++
		}
		checked <- n
	}()
	end := d.measureFrom.Add(dur)
	d.queryLoop(end, jobs)
	qSecs := time.Since(tq).Seconds()
	<-pubDone
	drained := make(chan struct{})
	go func() {
		for i := 0; i < dmInFlight; i++ {
			d.sem <- struct{}{}
		}
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		d.pub.close()
		<-drained
	}
	if err := <-cpuErr; err != nil {
		return err
	}
	gen1 := genCPU()
	r.spans.add("phase.window", 0, d.measureFrom, time.Now(), -1)
	nChecked := <-checked
	after, err := statsOf(d.q)
	if err != nil {
		return fmt.Errorf("final STATS: %w", err)
	}

	ack := r.rep.latency("ack", &d.ackLat)
	q := r.rep.latency("query", &d.qAll)
	for k := 0; k < nQueryKinds; k++ {
		r.rep.latency("query."+queryNames[k], &d.qLat[k])
	}
	qrps := float64(d.queries.Load()) / qSecs
	r.rep.add("query_rps", "1/s", qrps, fmt.Sprintf("%d queries in %.2fs, 1 in flight", d.queries.Load(), qSecs))
	r.rep.add("checked_queries", "count", float64(nChecked), "answers checked against the record")
	r.rep.add("query_torn_answers", "count", float64(d.torn.Load()),
		"answers where a row being appended showed in only some series")
	r.rep.add("failed_ratio", "ratio", ratio(float64(r.failed.Load()), float64(r.attempted.Load())),
		fmt.Sprintf("%d of %d", r.failed.Load(), r.attempted.Load()))
	if e := d.firstErr.Load(); e != nil {
		r.rep.add("first_error", "", 0, e.(string))
	}
	if ack.N == 0 || q.N == 0 {
		r.rep.fail("no ack or query latency samples")
	}
	n := len(d.ackSeg.count)
	r.calm("window", d.ackSeg, d.qSeg)
	r.set("latency_p50_us", "us", d.ackSeg.medianP50(), fmt.Sprintf("durable-mixed: ack_p50_us, median over the kept slices of %d x %v", n, segWidth))
	r.set("rate_per_s", "1/s", d.qSeg.medianRate(), fmt.Sprintf("durable-mixed: query_rps, median over the kept slices of %d x %v", n, segWidth))
	r.usage(d.p, d.ackSeg.cpuPerOp(d.qSeg),
		fmt.Sprintf("papid CPU per PUBLISH or QUERY, over the kept slices of %d x %v", n, segWidth),
		gen1-gen0, float64(d.acked.Load()+d.queries.Load()))
	r.lagCheck(ol, 5*time.Millisecond)
	r.serverLayer(d.before, after, dur.Seconds(), "binary")
	r.ledger(d.before, after, 0)

	for _, s := range d.sess {
		s.mu.RLock()
		for i, row := range s.rows[:min(len(s.rows), dmKeepRows)] {
			r.inputs.rows = append(r.inputs.rows, wal.Row{Session: s.id, TS: s.sendUs[i], Events: dmEvents, Vals: row})
		}
		s.mu.RUnlock()
	}
	// Replay rows in time order, as papid appended them.
	sort.SliceStable(r.inputs.rows, func(a, b int) bool { return r.inputs.rows[a].TS < r.inputs.rows[b].TS })
	r.inputs.reply = wire.Response{Op: wire.OpQuery, OK: true, Session: d.sess[0].id,
		Series: tsdbSample(d.sess[0])}
	return nil
}

// tsdbSample builds a typical 2 s raw QUERY answer (four counters)
// from a session's first rows, for the wire replay.
func tsdbSample(s *dmSess) []tsdb.Series {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []tsdb.Series
	n := min(len(s.rows), 62)
	for e, name := range dmEvents[1:5] {
		e++
		sr := tsdb.Series{Event: name}
		for i := 0; i < n; i++ {
			v := s.rows[i][e]
			sr.Buckets = append(sr.Buckets, tsdb.Bucket{Start: s.sendUs[i], Count: 1, Min: v, Max: v, Sum: v, Last: v})
		}
		out = append(out, sr)
	}
	return out
}

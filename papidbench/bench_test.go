package main

import (
	"bufio"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// stallServer is a fake papid: it answers HELLO, then replies to each
// request in order, stalling for stall before every every-th reply.
func stallServer(t *testing.T, every int, stall time.Duration) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		sc := bufio.NewScanner(nc)
		enc := json.NewEncoder(nc)
		for n := 0; sc.Scan(); n++ {
			var req wire.Request
			if err := json.Unmarshal(sc.Bytes(), &req); err != nil {
				return
			}
			if req.Op == wire.OpHello {
				_ = enc.Encode(wire.Response{Op: wire.OpHello, OK: true, Protocol: wire.ProtocolVersion})
				continue
			}
			if n%every == 0 {
				time.Sleep(stall)
			}
			_ = enc.Encode(wire.Response{Op: req.Op, OK: true, Session: req.Session})
		}
	}()
	return ln.Addr().String()
}

// TestStallCountedFromSchedule drives a stalling fake server open loop
// with one request in flight, so a stall holds back the sends behind
// it. Latency timed from the scheduled send time must charge them the
// wait; timed from the actual send it would hide it.
func TestStallCountedFromSchedule(t *testing.T) {
	const (
		rate  = 500.0 // 2ms apart
		stall = 30 * time.Millisecond
		every = 50 // 2% of requests stall, so p99 must reach the stall
	)
	c, err := dial(stallServer(t, every, stall), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	var fromDue, fromSend samples
	sem := make(chan struct{}, 1)
	var wg sync.WaitGroup
	ol := &openLoop{rate: rate}
	n := ol.run(time.Now(), time.Second, func(_ int, due time.Time) {
		sem <- struct{}{}
		wg.Add(1)
		c.send(&wire.Request{Op: wire.OpPublish, Session: 1}, &call{due: due, done: func(cl *call) {
			if cl.err == nil {
				fromDue.add(cl.at.Sub(cl.due).Nanoseconds())
				fromSend.add(cl.at.Sub(cl.sent).Nanoseconds())
			}
			<-sem
			wg.Done()
		}})
	})
	wg.Wait()
	if got := len(fromDue.sorted()); got != n {
		t.Fatalf("%d of %d requests answered", got, n)
	}
	due, sent := fromDue.sorted(), fromSend.sorted()
	if p99 := time.Duration(quantile(due, 0.99)); p99 < stall {
		t.Errorf("p99 from the schedule = %v, want at least the %v stall", p99, stall)
	}
	// Each stall delays the requests queued behind it by up to the
	// stall: about stall/interval of them per stall see at least half
	// of it from their due time, but not from their late send.
	stalls := n / every
	atLeast := func(v []int64, d time.Duration) int {
		k := 0
		for _, x := range v {
			if time.Duration(x) >= d {
				k++
			}
		}
		return k
	}
	if k := atLeast(due, stall/2); k < stalls*5 {
		t.Errorf("%d requests waited >= %v from their due time, want >= %d (%d stalls)", k, stall/2, stalls*5, stalls)
	}
	if kd, ks := atLeast(due, stall/2), atLeast(sent, stall/2); ks >= kd {
		t.Errorf("send-timed latency shows %d slow requests, schedule-timed %d: the wait was not charged", ks, kd)
	}
	// The generator's own lateness is reported too.
	if max := summarize(&ol.lag).Max; time.Duration(max*1e3) < stall/2 {
		t.Errorf("generator lag max %.0fus, want at least %v: the held-back sends ran late", max, stall/2)
	}
}

func TestTailLevel(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{9, 0, false}, {99, 0, false}, {100, 0.9, true}, {999, 0.9, true},
		{1000, 0.99, true}, {9999, 0.99, true}, {10000, 0.999, true}, {100000, 0.9999, true},
	} {
		q, ok := tailLevel(tc.n)
		if q != tc.want || ok != tc.ok {
			t.Errorf("tailLevel(%d) = %v,%v, want %v,%v", tc.n, q, ok, tc.want, tc.ok)
		}
	}
	for q, want := range map[float64]string{0.9: "p90", 0.99: "p99", 0.999: "p999", 0.9999: "p9999"} {
		if got := levelName(q); got != want {
			t.Errorf("levelName(%v) = %q, want %q", q, got, want)
		}
	}
}

// TestReportUsesTrustworthyTail checks the report prints the highest
// percentile with at least ten samples beyond it, with its counts.
func TestReportUsesTrustworthyTail(t *testing.T) {
	var s samples
	for i := 1; i <= 1000; i++ {
		s.add(int64(i) * 1000) // 1..1000 µs
	}
	var r report
	sum := r.latency("ack", &s)
	if sum.TailQ != 0.99 || sum.Beyond != 10 {
		t.Fatalf("tail %v with %d beyond, want p99 with 10 beyond", sum.TailQ, sum.Beyond)
	}
	got := map[string]line{}
	for _, l := range r.lines {
		got[l.Name] = l
	}
	if l, ok := got["ack_p50_us"]; !ok || l.Value != 500 || !strings.Contains(l.Note, "n=1000") {
		t.Errorf("ack_p50_us line %+v, want 500us with n=1000", l)
	}
	if l, ok := got["ack_p99_us"]; !ok || l.Value != 990 || !strings.Contains(l.Note, "n=1000, 10 beyond") {
		t.Errorf("ack_p99_us line %+v, want 990us with n=1000, 10 beyond", l)
	}
	if _, ok := got["ack_p999_us"]; ok {
		t.Error("p999 printed from 1000 samples: only one sample lies beyond it")
	}

	var few samples
	for i := 0; i < 50; i++ {
		few.add(int64(i))
	}
	var r2 report
	r2.latency("q", &few)
	if r2.lines[1].Name != "q_tail_us" || !strings.Contains(r2.lines[1].Note, "n=50") {
		t.Errorf("50 samples: tail line %+v, want q_tail_us naming the count", r2.lines[1])
	}
}

// TestLagReported checks a generator that falls behind is measured
// and flagged.
func TestLagReported(t *testing.T) {
	ol := &openLoop{rate: 1000}
	ol.run(time.Now(), 200*time.Millisecond, func(i int, _ time.Time) {
		if i == 10 {
			time.Sleep(40 * time.Millisecond)
		}
	})
	r := newRun(config{}, 1, false)
	r.lagCheck(ol, 5*time.Millisecond)
	if v := r.metric["gen.lag_p99_us"].Value; v < 5000 {
		t.Errorf("gen.lag_p99_us = %.0f, want >= 5000 after a 40ms hold-up", v)
	}
	if len(r.rep.flags) != 1 || !strings.Contains(r.rep.flags[0], "fell behind") {
		t.Errorf("flags %q, want one schedule-lag flag", r.rep.flags)
	}
}

// TestCompareRefusesOtherEnvironments checks compare mode refuses
// results measured on different environments unless forced.
func TestCompareRefusesOtherEnvironments(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, procs int) string {
		res := result{Workload: "live-tick", Seconds: 10, Env: environment{GOMAXPROCS: procs, NumCPU: 2,
			CPUModel: "x", GoVersion: "go1", PapidFlags: []string{"-tick", "10ms"}},
			Report: []line{{Name: "rate_per_s", Value: float64(procs), Unit: "1/s"}}}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b, c := write("a.json", 2), write("b.json", 1), write("c.json", 2)
	var out strings.Builder
	if err := compare(&out, a, b, false); err == nil || !strings.Contains(err.Error(), "GOMAXPROCS") {
		t.Errorf("compare across GOMAXPROCS: err %v, want a refusal naming GOMAXPROCS", err)
	}
	if err := compare(&out, a, b, true); err != nil {
		t.Errorf("forced compare: %v", err)
	}
	if err := compare(&out, a, c, false); err != nil {
		t.Errorf("compare within one environment: %v", err)
	}
}

// TestSpanSelfTime checks a span's self time excludes its children.
func TestSpanSelfTime(t *testing.T) {
	t0 := time.Now()
	r := newSpanRec(t0)
	root := r.add("publish", 1, t0, t0.Add(10*time.Millisecond), -1)
	r.add("publish.queued", 1, t0, t0.Add(4*time.Millisecond), root)
	self, n := r.selfTimes()
	if self["publish"] != (6*time.Millisecond).Nanoseconds() || n["publish"] != 1 {
		t.Errorf("publish self time %dns (n=%d), want 6ms", self["publish"], n["publish"])
	}
	p := filepath.Join(t.TempDir(), "spans.json")
	if err := r.write(p); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	b, _ := os.ReadFile(p)
	if err := json.Unmarshal(b, &doc); err != nil || len(doc.TraceEvents) != 2 {
		t.Errorf("span file: %v, %d events", err, len(doc.TraceEvents))
	}
	var nilRec *spanRec
	if nilRec.add("x", 0, t0, t0, -1) != -1 || nilRec.count() != 0 {
		t.Error("a nil recorder must record nothing")
	}
}

package telemetry

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// scrape renders reg as Prometheus text and parses it back into
// header lines and sample values — a minimal format-0.0.4 parser that
// doubles as the format check.
func scrape(t *testing.T, reg *Registry) (types map[string]string, samples map[string]float64) {
	t.Helper()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	types = make(map[string]string)
	samples = make(map[string]float64)
	for _, line := range strings.Split(sb.String(), "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			types[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unexpected comment line %q", line)
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("sample line %q has no value", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("sample line %q: %v", line, err)
		}
		if _, dup := samples[line[:sp]]; dup {
			t.Fatalf("duplicate sample %q", line[:sp])
		}
		samples[line[:sp]] = v
	}
	return types, samples
}

func TestPrometheusExposition(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounter(Opts{Name: "papid_frames_sent_total", Help: "frames", Labels: []Label{{"codec", "json"}}})
	c2 := reg.NewCounter(Opts{Name: "papid_frames_sent_total", Labels: []Label{{"codec", "binary"}}})
	g := reg.NewGauge(Opts{Name: "papid_sessions", Help: "live sessions"})
	reg.NewCounterFunc(Opts{Name: "papid_cache_hits_total"}, func() uint64 { return 42 })
	reg.NewGaugeFunc(Opts{Name: "papid_uptime_seconds"}, func() float64 { return 1.5 })
	h := reg.NewLatencyHistogram(Opts{Name: "papid_op_latency_seconds", Help: "per-op latency", Key: "op/READ/json"})

	c.Add(7)
	c2.Inc()
	g.Set(3)
	h.Observe(2_000_000_000) // 2s in ns
	h.Observe(5)             // 5ns

	types, samples := scrape(t, reg)
	wantTypes := map[string]string{
		"papid_frames_sent_total":  "counter",
		"papid_sessions":           "gauge",
		"papid_cache_hits_total":   "counter",
		"papid_uptime_seconds":     "gauge",
		"papid_op_latency_seconds": "histogram",
	}
	for fam, kind := range wantTypes {
		if types[fam] != kind {
			t.Errorf("family %s: TYPE %q, want %q", fam, types[fam], kind)
		}
	}
	if v := samples[`papid_frames_sent_total{codec="json"}`]; v != 7 {
		t.Errorf("labeled counter = %v, want 7", v)
	}
	if v := samples[`papid_frames_sent_total{codec="binary"}`]; v != 1 {
		t.Errorf("labeled counter = %v, want 1", v)
	}
	if v := samples["papid_sessions"]; v != 3 {
		t.Errorf("gauge = %v, want 3", v)
	}
	if v := samples["papid_cache_hits_total"]; v != 42 {
		t.Errorf("counter func = %v, want 42", v)
	}
	if v := samples["papid_uptime_seconds"]; v != 1.5 {
		t.Errorf("gauge func = %v, want 1.5", v)
	}
	// Histogram: +Inf bucket == _count == 2; _sum scaled into seconds.
	if v := samples[`papid_op_latency_seconds_bucket{le="+Inf"}`]; v != 2 {
		t.Errorf("+Inf bucket = %v, want 2", v)
	}
	if v := samples["papid_op_latency_seconds_count"]; v != 2 {
		t.Errorf("_count = %v, want 2", v)
	}
	if v := samples["papid_op_latency_seconds_sum"]; v < 2.0 || v > 2.001 {
		t.Errorf("_sum = %v, want ~2.000000005 seconds", v)
	}
	// Cumulative buckets are monotone in le order, and every occupied
	// bucket's le is a finite second value.
	var bounds []float64
	cums := map[float64]float64{}
	for key, v := range samples {
		if !strings.HasPrefix(key, `papid_op_latency_seconds_bucket{le="`) || strings.Contains(key, "+Inf") {
			continue
		}
		le, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimPrefix(key, `papid_op_latency_seconds_bucket{le="`), `"}`), 64)
		if err != nil {
			t.Fatalf("bucket key %q: %v", key, err)
		}
		bounds = append(bounds, le)
		cums[le] = v
	}
	if len(bounds) != 2 {
		t.Fatalf("want 2 occupied buckets, got %v", bounds)
	}
	lo, hi := bounds[0], bounds[1]
	if lo > hi {
		lo, hi = hi, lo
	}
	if cums[lo] > cums[hi] {
		t.Errorf("cumulative counts not monotone: le=%g has %g, le=%g has %g", lo, cums[lo], hi, cums[hi])
	}
}

func TestSummariesKeyedOnly(t *testing.T) {
	reg := NewRegistry()
	keyed := reg.NewHistogram(Opts{Name: "a", Key: "op/READ/json"})
	unkeyed := reg.NewHistogram(Opts{Name: "b"})
	empty := reg.NewHistogram(Opts{Name: "c", Key: "tick"})
	_ = empty
	keyed.Observe(10)
	unkeyed.Observe(10)
	s := reg.Summaries()
	if len(s) != 1 {
		t.Fatalf("Summaries() = %v, want just the keyed+observed one", s)
	}
	if got := s["op/READ/json"]; got.Count != 1 || got.Max != 10 {
		t.Errorf("summary = %+v", got)
	}
}

// TestValuesKeyedCountersAndGauges: Values carries every keyed counter
// and gauge — striped, func-backed and labelled alike — and nothing
// unkeyed or histogram-shaped; a second instrument claiming a key
// panics instead of silently shadowing the first.
func TestValuesKeyedCountersAndGauges(t *testing.T) {
	reg := NewRegistry()
	reg.NewCounter(Opts{Name: "striped_total", Key: "striped"}).Add(3)
	reg.NewCounterFunc(Opts{Name: "func_total", Key: "func"}, func() uint64 { return 7 })
	reg.NewGaugeFunc(Opts{Name: "level", Key: "level"}, func() float64 { return 12.9 })
	reg.NewGaugeFunc(Opts{Name: "negative", Key: "negative"}, func() float64 { return -4 })
	reg.NewCounter(Opts{Name: "frames_total", Labels: []Label{{"codec", "json"}},
		Key: "frames_json"}).Inc()
	reg.NewCounter(Opts{Name: "frames_total", Labels: []Label{{"codec", "binary"}}}).Inc()
	reg.NewCounter(Opts{Name: "unkeyed_total"}).Inc()
	reg.NewHistogram(Opts{Name: "h", Key: "h"}).Observe(10)
	want := map[string]uint64{"striped": 3, "func": 7, "level": 12, "negative": 0, "frames_json": 1}
	if got := reg.Values(); !reflect.DeepEqual(got, want) {
		t.Errorf("Values() = %v, want %v", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Error("duplicate key did not panic")
		}
	}()
	reg.NewGauge(Opts{Name: "other", Key: "striped"})
}

func TestRegistryDuplicatePanics(t *testing.T) {
	reg := NewRegistry()
	reg.NewCounter(Opts{Name: "x", Labels: []Label{{"a", "1"}}})
	// Same name, different labels: fine.
	reg.NewCounter(Opts{Name: "x", Labels: []Label{{"a", "2"}}})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate (name, labels) did not panic")
			}
		}()
		reg.NewCounter(Opts{Name: "x", Labels: []Label{{"a", "1"}}})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("kind clash within a family did not panic")
			}
		}()
		reg.NewGauge(Opts{Name: "x", Labels: []Label{{"a", "3"}}})
	}()
}

func TestWriteJSON(t *testing.T) {
	reg := NewRegistry()
	reg.NewCounter(Opts{Name: "c_total", Labels: []Label{{"k", "v"}}}).Add(9)
	reg.NewHistogram(Opts{Name: "h"}).Observe(100)
	var sb strings.Builder
	if err := reg.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var doc []JSONMetric
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("statusz body is not JSON: %v\n%s", err, sb.String())
	}
	if len(doc) != 2 {
		t.Fatalf("doc = %+v", doc)
	}
	if doc[0].Name != "c_total" || doc[0].Value != 9 || doc[0].Labels["k"] != "v" {
		t.Errorf("counter metric = %+v", doc[0])
	}
	if doc[1].Hist == nil || doc[1].Hist.Count != 1 || doc[1].Hist.Max != 100 {
		t.Errorf("histogram metric = %+v", doc[1])
	}
}

func TestHTTPHandler(t *testing.T) {
	reg := NewRegistry()
	reg.NewCounter(Opts{Name: "papid_ticks_total"}).Inc()
	h := Handler(reg, func() any { return map[string]int{"sessions": 2} })

	get := func(path string) (int, string, string) {
		req := httptest.NewRequest("GET", path, nil)
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, req)
		return rw.Code, rw.Header().Get("Content-Type"), rw.Body.String()
	}
	if code, ct, body := get("/metrics"); code != 200 ||
		!strings.HasPrefix(ct, "text/plain; version=0.0.4") ||
		!strings.Contains(body, "papid_ticks_total 1") {
		t.Errorf("/metrics: %d %q %q", code, ct, body)
	}
	if code, ct, body := get("/statusz"); code != 200 ||
		!strings.HasPrefix(ct, "application/json") ||
		!strings.Contains(body, `"sessions": 2`) {
		t.Errorf("/statusz: %d %q %q", code, ct, body)
	}
	if code, _, body := get("/debug/pprof/"); code != 200 || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/: %d %q", code, body)
	}
	if code, _, _ := get("/nonsense"); code != 404 {
		t.Errorf("/nonsense: %d, want 404", code)
	}
	if code, _, body := get("/"); code != 200 || !strings.Contains(body, "/metrics") {
		t.Errorf("index: %d %q", code, body)
	}
}

func TestLogfBridge(t *testing.T) {
	var lines []string
	logger := NewLogfLogger(func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf(format, args...))
	}, slog.LevelInfo)
	logger = logger.With("conn", 7)
	logger.Info("papid: slow op", "op", "READ", "dur", "300ms")
	logger.Debug("suppressed")
	if len(lines) != 1 {
		t.Fatalf("lines = %q", lines)
	}
	for _, want := range []string{"papid: slow op", "conn=7", "op=READ", "dur=300ms"} {
		if !strings.Contains(lines[0], want) {
			t.Errorf("line %q lacks %q", lines[0], want)
		}
	}
	// Groups qualify keys.
	lines = nil
	g := NewLogfLogger(func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf(format, args...))
	}, slog.LevelInfo).WithGroup("wire")
	g.Warn("msg", "op", "READ")
	if len(lines) != 1 || !strings.Contains(lines[0], "wire.op=READ") {
		t.Errorf("grouped line = %q", lines)
	}
	// Discard never panics and is disabled at every level.
	Discard().Error("dropped", "k", "v")
}

func TestFormatSummaryTable(t *testing.T) {
	hists := map[string]Summary{
		"op/READ/json": {Count: 10, P50: 30_000, P90: 60_000, P99: 100_000, Max: 120_000},
		"tick":         {Count: 3, P50: 1000, P90: 2000, P99: 2000, Max: 2500},
	}
	table := FormatSummaryTable(hists, nil)
	if !strings.Contains(table, "op/READ/json") || !strings.Contains(table, "tick") {
		t.Errorf("table lacks keys:\n%s", table)
	}
	if !strings.Contains(table, "30.0") { // 30_000ns = 30.0µs
		t.Errorf("table lacks µs-scaled p50:\n%s", table)
	}
	only := FormatSummaryTable(hists, func(k string) bool { return strings.HasPrefix(k, "op/") })
	if strings.Contains(only, "tick") {
		t.Errorf("filter kept excluded key:\n%s", only)
	}
	if got := FormatSummaryTable(nil, nil); got != "" {
		t.Errorf("empty table = %q", got)
	}
}

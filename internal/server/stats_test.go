package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

// statsConfig is one server shape whose STATS key set differs: which
// components register instruments decides which keys exist.
type statsConfig struct {
	name string
	cfg  Config
	keys []string // the exact STATS key set
}

// STATS key groups, one per component that contributes keys.
var (
	serverStatsKeys = []string{
		"sessions", "connections", "cache_hits", "cache_misses",
		"snapshots_sent", "snapshots_dropped", "ticks", "evictions",
		"deadline_trips", "resyncs", "write_drops", "tick_stalls",
		"frames_sent_json", "frames_sent_binary", "bytes_sent_json", "bytes_sent_binary",
		"derived_sent", "derived_dropped", "deltas_sent", "deltas_dropped",
		"keyframes_sent", "encode_failures",
		"derive_evals", "derive_alerts",
	}
	tsdbStatsKeys = []string{"tsdb_bytes", "tsdb_series", "tsdb_samples", "tsdb_evictions"}
	walStatsKeys  = []string{
		"wal_rows", "wal_fsyncs", "wal_sealed_blocks", "wal_compactions",
		"wal_truncated_files", "wal_write_errors", "wal_files", "wal_segments",
		"wal_disk_bytes", "wal_replayed_rows", "wal_replayed_blocks",
		"wal_torn_records", "wal_clean_start", "wal_pending_blocks",
	}
	traceStatsKeys = []string{"trace_started", "trace_retained", "trace_kept_slow", "trace_kept_err"}
)

// statsConfigs are the four server shapes the STATS tests cover: RAM
// history with tracing off (the default), durable history, tracing on,
// and history disabled. Every shape ticks only by hand and records
// every op as slow, so v4 STATS replies always carry slow samples.
func statsConfigs(t *testing.T) []statsConfig {
	base := Config{TickInterval: time.Hour, SlowOp: time.Nanosecond}
	durable, traced, noHistory := base, base, base
	durable.DataDir = t.TempDir()
	traced.TraceSample = 1
	noHistory.TSDBMaxBytes = -1
	keys := func(groups ...[]string) []string { return slices.Concat(groups...) }
	return []statsConfig{
		{"ram", base, keys(serverStatsKeys, tsdbStatsKeys)},
		{"durable", durable, keys(serverStatsKeys, tsdbStatsKeys, walStatsKeys)},
		{"traced", traced, keys(serverStatsKeys, tsdbStatsKeys, traceStatsKeys)},
		{"nohistory", noHistory, keys(serverStatsKeys)},
	}
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestStatsGolden pins the STATS reply per server shape and peer: the
// exact key set (identical for every peer), histogram summaries only
// for v3+ peers, slow-op samples only for v4 peers.
func TestStatsGolden(t *testing.T) {
	peers := []struct {
		name    string
		version int
		binary  bool
	}{
		{"v2-json", 2, false},
		{"v4-json", 4, false},
		{"v4-binary", 4, true},
	}
	for _, sc := range statsConfigs(t) {
		t.Run(sc.name, func(t *testing.T) {
			_, addr := startServer(t, sc.cfg)
			want := slices.Clone(sc.keys)
			sort.Strings(want)
			for _, p := range peers {
				var cl *Client
				if p.binary {
					cl = dialBinary(t, addr)
				} else {
					cl = dialT(t, addr)
					if _, err := cl.Do(wire.Request{Op: wire.OpHello, Version: p.version}); err != nil {
						t.Fatal(err)
					}
				}
				resp, err := cl.Do(wire.Request{Op: wire.OpStats})
				if err != nil {
					t.Fatal(err)
				}
				if got := sortedKeys(resp.Stats); !slices.Equal(got, want) {
					t.Errorf("%s: STATS keys\n got %v\nwant %v", p.name, got, want)
				}
				if hasHists := resp.Hists != nil; hasHists != (p.version >= wire.MinProtocolStatsHists) {
					t.Errorf("%s: hists present = %v", p.name, hasHists)
				}
				if hasSlow := resp.Slow != nil; hasSlow != (p.version >= wire.MinProtocolTrace) {
					t.Errorf("%s: slow samples present = %v", p.name, hasSlow)
				}
			}
		})
	}
}

// TestStatsAgreeWithMetrics: every STATS key is declared once, as the
// Key of one registered counter or gauge, so STATS and /metrics read
// the same instrument. On a quiesced server each STATS value equals
// its /metrics sample, and every keyed counter or gauge is in STATS.
func TestStatsAgreeWithMetrics(t *testing.T) {
	for _, sc := range statsConfigs(t) {
		t.Run(sc.name, func(t *testing.T) {
			srv, addr := startServer(t, sc.cfg)
			driveStatsWorkload(t, srv, addr)
			stats, samples, keyed := quiescedStats(t, srv)
			for key, v := range stats {
				series, ok := keyed[key]
				if !ok {
					t.Errorf("STATS key %s has no /metrics series", key)
					continue
				}
				if got, ok := samples[series]; !ok || got != v {
					t.Errorf("STATS %s = %d, /metrics %s = %d (present %v)", key, v, series, got, ok)
				}
			}
			for key, series := range keyed {
				if _, ok := stats[key]; !ok {
					t.Errorf("keyed instrument %s missing from STATS as %s", series, key)
				}
			}
		})
	}
}

// driveStatsWorkload runs a fixed request mix so most counters are
// non-zero: a JSON peer publishes into one session and reads a ticked
// hwsim session, a binary peer subscribes to both, and three hand
// ticks fan the hwsim session out.
func driveStatsWorkload(t *testing.T, srv *Server, addr string) {
	t.Helper()
	pub := dialT(t, addr)
	if _, err := pub.Hello(); err != nil {
		t.Fatal(err)
	}
	do := func(cl *Client, req wire.Request) wire.Response {
		t.Helper()
		resp, err := cl.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	published := do(pub, wire.Request{Op: wire.OpCreate, Workload: "none"}).Session
	ticked := do(pub, wire.Request{Op: wire.OpCreate, Workload: "dot", N: 8,
		Events: []string{"PAPI_TOT_CYC"}}).Session
	do(pub, wire.Request{Op: wire.OpStart, Session: ticked})
	sub := dialBinary(t, addr)
	do(sub, wire.Request{Op: wire.OpSubscribe, Session: published})
	do(sub, wire.Request{Op: wire.OpSubscribe, Sessions: []uint64{ticked}, Delta: true})
	for i := int64(1); i <= 3; i++ {
		do(pub, wire.Request{Op: wire.OpPublish, Session: published,
			Events: []string{"PAPI_TOT_CYC", "PAPI_FP_OPS"}, Values: []int64{10 * i, 3 * i}})
		srv.tick()
	}
	do(pub, wire.Request{Op: wire.OpRead, Session: ticked})
}

// quiescedStats reads STATS (as the dispatcher answers it), the
// /metrics samples by series, and each keyed counter or gauge's
// series by key, retrying until STATS reads the same before and after
// the scrape — writer goroutines and the WAL fsync loop may still be
// counting the workload's last frames.
func quiescedStats(t *testing.T, srv *Server) (stats, samples map[string]uint64, keyed map[string]string) {
	t.Helper()
	reg := srv.Telemetry()
	for try := 0; try < 200; try++ {
		before := srv.dispatch(nil, &wire.Request{Op: wire.OpStats}).Stats
		var prom, js bytes.Buffer
		if err := reg.WritePrometheus(&prom); err != nil {
			t.Fatal(err)
		}
		if err := reg.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		if after := srv.dispatch(nil, &wire.Request{Op: wire.OpStats}).Stats; !maps.Equal(before, after) {
			time.Sleep(10 * time.Millisecond)
			continue
		}
		return before, parseSamples(t, &prom), keyedSeries(t, &js)
	}
	t.Fatal("STATS never settled")
	return nil, nil, nil
}

// parseSamples maps each Prometheus text sample line's series
// (name plus label set, as written) to its value.
func parseSamples(t *testing.T, prom *bytes.Buffer) map[string]uint64 {
	t.Helper()
	out := make(map[string]uint64)
	sc := bufio.NewScanner(prom)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad sample line %q: %v", line, err)
		}
		out[line[:i]] = uint64(v)
	}
	return out
}

// keyedSeries maps the Key of every keyed counter and gauge in the
// registry's JSON document to its /metrics series.
func keyedSeries(t *testing.T, js *bytes.Buffer) map[string]string {
	t.Helper()
	var doc []struct {
		Name   string            `json:"name"`
		Labels map[string]string `json:"labels"`
		Kind   string            `json:"kind"`
		Key    string            `json:"key"`
	}
	if err := json.Unmarshal(js.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string)
	for _, m := range doc {
		if m.Key == "" || m.Kind == "histogram" {
			continue
		}
		series := m.Name
		if len(m.Labels) > 0 {
			pairs := make([]string, 0, len(m.Labels))
			for _, name := range sortedKeys(m.Labels) {
				pairs = append(pairs, fmt.Sprintf("%s=%q", name, m.Labels[name]))
			}
			series += "{" + strings.Join(pairs, ",") + "}"
		}
		out[m.Key] = series
	}
	return out
}

package main

import (
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// samples collects latencies in nanoseconds. Safe for concurrent use.
type samples struct {
	mu sync.Mutex
	v  []int64
}

func (s *samples) add(ns int64) {
	s.mu.Lock()
	s.v = append(s.v, ns)
	s.mu.Unlock()
}

// sorted returns a sorted copy of the samples.
func (s *samples) sorted() []int64 {
	s.mu.Lock()
	out := slices.Clone(s.v)
	s.mu.Unlock()
	slices.Sort(out)
	return out
}

// quantile returns the nearest-rank q-quantile of sorted, or 0 when it
// is empty.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tailLevels are the tail percentiles a report may use, lowest first.
var tailLevels = []float64{0.9, 0.99, 0.999, 0.9999}

// tailLevel returns the highest tail percentile that leaves at least
// ten of n samples beyond it, so a reported tail is never a single
// outlier. ok is false when even p90 has fewer than ten beyond it.
func tailLevel(n int) (q float64, ok bool) {
	for i := len(tailLevels) - 1; i >= 0; i-- {
		if float64(n)*(1-tailLevels[i]) >= 10-1e-9 {
			return tailLevels[i], true
		}
	}
	return 0, false
}

// levelName renders a percentile as a metric-name suffix: 0.99 → "p99",
// 0.999 → "p999".
func levelName(q float64) string {
	s := strconv.FormatFloat(q*100, 'f', -1, 64)
	if len(s) > 6 {
		s = strconv.FormatFloat(q*100, 'f', 2, 64) // 99.99 must not print as 99.98999…
	}
	return "p" + strings.ReplaceAll(s, ".", "")
}

// summary is one latency distribution as the report prints it.
type summary struct {
	N      int
	P50    float64 // µs
	TailQ  float64 // 0 when too few samples for any tail
	Tail   float64 // µs at TailQ
	Beyond int     // samples beyond TailQ
	Max    float64 // µs
}

func summarize(s *samples) summary {
	v := s.sorted()
	sum := summary{N: len(v)}
	if len(v) == 0 {
		return sum
	}
	sum.P50 = float64(quantile(v, 0.5)) / 1e3
	sum.Max = float64(v[len(v)-1]) / 1e3
	if q, ok := tailLevel(len(v)); ok {
		sum.TailQ = q
		sum.Tail = float64(quantile(v, q)) / 1e3
		sum.Beyond = len(v) - int(math.Ceil(q*float64(len(v))))
	}
	return sum
}

// line is one printed report entry.
type line struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Note  string  `json:"note,omitempty"`
}

// report accumulates everything a run prints: every named metric with
// its unit, correctness failures, and trust flags.
type report struct {
	mu       sync.Mutex
	lines    []line
	failures []string
	nfail    int
	flags    []string
}

func (r *report) add(name, unit string, v float64, note string) {
	r.mu.Lock()
	r.lines = append(r.lines, line{Name: name, Value: v, Unit: unit, Note: note})
	r.mu.Unlock()
}

// latency adds <prefix>_p50_us and the highest trustworthy tail
// percentile (see tailLevel), both with their sample counts.
func (r *report) latency(prefix string, s *samples) summary {
	sum := summarize(s)
	r.add(prefix+"_p50_us", "us", sum.P50, fmt.Sprintf("n=%d", sum.N))
	if sum.TailQ > 0 {
		r.add(prefix+"_"+levelName(sum.TailQ)+"_us", "us", sum.Tail,
			fmt.Sprintf("n=%d, %d beyond, max=%.1fus", sum.N, sum.Beyond, sum.Max))
	} else {
		r.add(prefix+"_tail_us", "us", sum.Max, fmt.Sprintf("n=%d: too few samples for p90, max shown", sum.N))
	}
	return sum
}

// fail records a correctness failure. Every failure is counted; the
// first few are kept verbatim for the report.
func (r *report) fail(format string, args ...any) {
	r.mu.Lock()
	r.nfail++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

func (r *report) failed() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.nfail
}

// flag records a reason not to trust the run's figures (for example a
// generator that fell behind its schedule).
func (r *report) flag(format string, args ...any) {
	r.mu.Lock()
	r.flags = append(r.flags, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

// median returns the median of vs (which it sorts).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// ratio divides, returning 0 for a zero denominator.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// segments splits a measured window into equal slices, so a figure
// can be reported as the median of its per-slice values: a transient
// disturbance on the host moves one slice, not the whole run.
type segments struct {
	start time.Time
	width time.Duration
	lat   []samples      // latency samples per slice, ns
	count []atomic.Int64 // operations per slice
	cpu   []time.Duration
	steal []hostTicks // host CPU accounting at each slice boundary
	// use, when set, selects the slices the medians read (see
	// pickCalm); nil reads them all.
	use []bool
}

// hostTicks is the host's cumulative CPU accounting from /proc/stat:
// ticks stolen by the hypervisor for other guests, and all ticks.
type hostTicks struct{ steal, total int64 }

func readHostTicks() hostTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostTicks{}
	}
	ln, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(ln)
	var t hostTicks
	for i := 1; i < len(f); i++ {
		v, _ := strconv.ParseInt(f[i], 10, 64)
		t.total += v
		if i == 8 {
			t.steal = v
		}
	}
	return t
}

// calmShare is the hypervisor steal share above which a slice counts
// as disturbed by other guests on the host.
const calmShare = 0.03

// pickCalm selects the slices to report from the steal recorded at the
// boundaries: every slice the hypervisor took at most calmShare of the
// CPU from, or, when fewer than half are that calm, the calmest half.
// It returns the whole window's steal share and the slices kept.
func (s *segments) pickCalm() (stealShare float64, kept int) {
	n := len(s.count)
	if len(s.steal) != n+1 {
		return 0, n
	}
	share := make([]float64, n)
	for i := range share {
		share[i] = ratio(float64(s.steal[i+1].steal-s.steal[i].steal), float64(s.steal[i+1].total-s.steal[i].total))
	}
	s.use = make([]bool, n)
	for i, sh := range share {
		if sh <= calmShare {
			s.use[i] = true
			kept++
		}
	}
	if kept < (n+1)/2 {
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool { return share[order[a]] < share[order[b]] })
		s.use = make([]bool, n)
		kept = (n + 1) / 2
		for _, i := range order[:kept] {
			s.use[i] = true
		}
	}
	first, last := s.steal[0], s.steal[n]
	return ratio(float64(last.steal-first.steal), float64(last.total-first.total)), kept
}

func (s *segments) used(i int) bool { return s.use == nil || s.use[i] }

func newSegments(start time.Time, width, total time.Duration) *segments {
	n := int(total / width)
	if n < 1 {
		n = 1
	}
	return &segments{start: start, width: width, lat: make([]samples, n), count: make([]atomic.Int64, n)}
}

// index returns the slice t falls in, or -1 outside the window.
func (s *segments) index(t time.Time) int {
	d := t.Sub(s.start)
	if d < 0 {
		return -1
	}
	i := int(d / s.width)
	if i >= len(s.count) {
		return -1
	}
	return i
}

func (s *segments) end() time.Time {
	return s.start.Add(time.Duration(len(s.count)) * s.width)
}

// add counts one operation at t with latency ns (ns < 0: no latency).
func (s *segments) add(t time.Time, ns int64) {
	if i := s.index(t); i >= 0 {
		s.count[i].Add(1)
		if ns >= 0 {
			s.lat[i].add(ns)
		}
	}
}

// medianP50 is the median over slices of each slice's p50, in µs.
func (s *segments) medianP50() float64 {
	var v []float64
	for i := range s.lat {
		if sorted := s.lat[i].sorted(); len(sorted) > 0 && s.used(i) {
			v = append(v, float64(quantile(sorted, 0.5))/1e3)
		}
	}
	return median(v)
}

// medianRate is the median over slices of operations per second.
func (s *segments) medianRate() float64 {
	var v []float64
	for i := range s.count {
		if s.used(i) {
			v = append(v, float64(s.count[i].Load())/s.width.Seconds())
		}
	}
	return median(v)
}

// sampleCPU reads papid's CPU time and the host's steal at every slice
// boundary, returning once the window has ended.
func (s *segments) sampleCPU(p *papidProc) error {
	s.cpu = make([]time.Duration, len(s.count)+1)
	s.steal = make([]hostTicks, len(s.count)+1)
	for k := range s.cpu {
		time.Sleep(time.Until(s.start.Add(time.Duration(k) * s.width)))
		c, err := p.cpu()
		if err != nil {
			return err
		}
		s.cpu[k], s.steal[k] = c, readHostTicks()
	}
	return nil
}

// cpuPerOp is papid's CPU µs per operation over the kept slices:
// their CPU time summed, over the operations counted in them, here and
// in extra. Summing first keeps /proc's 10ms CPU granularity out of
// the figure.
func (s *segments) cpuPerOp(extra ...*segments) float64 {
	var cpu time.Duration
	var ops int64
	for i := range s.count {
		if i+1 >= len(s.cpu) || !s.used(i) {
			continue
		}
		cpu += s.cpu[i+1] - s.cpu[i]
		ops += s.count[i].Load()
		for _, e := range extra {
			ops += e.count[i].Load()
		}
	}
	return ratio(float64(cpu.Microseconds()), float64(ops))
}

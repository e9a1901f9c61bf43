package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// openLoop sends on a fixed schedule regardless of replies: request i
// is due at start + i/rate. Latency is timed from the due time, so a
// stall that holds back later sends counts against every request it
// delayed (coordinated-omission safe), and lag records how late the
// generator itself ran.
type openLoop struct {
	rate float64 // requests per second
	lag  samples // send time minus due time, ns
}

// run fires requests until dur has elapsed since start and returns how
// many it fired. fire may block (for example on an in-flight limit);
// the delay shows as lag on the requests behind it.
func (o *openLoop) run(start time.Time, dur time.Duration, fire func(i int, due time.Time)) int {
	interval := time.Duration(float64(time.Second) / o.rate)
	n := 0
	for {
		due := start.Add(time.Duration(n) * interval)
		if due.Sub(start) >= dur {
			return n
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		o.lag.add(time.Since(due).Nanoseconds())
		fire(n, due)
		n++
	}
}

// spanRec keeps the generator's own spans in memory and writes them as
// Chrome trace-event JSON (loadable in Perfetto) when the run ends. A
// nil *spanRec records nothing, so untraced runs pay one nil check.
type spanRec struct {
	mu      sync.Mutex
	epoch   time.Time
	spans   []span
	dropped int
}

type span struct {
	name   string
	lane   int
	start  time.Time
	end    time.Time
	parent int32 // index of the enclosing span, -1 for a root
}

// maxSpans bounds the recorder's memory; later spans are counted as
// dropped instead.
const maxSpans = 400_000

func newSpanRec(epoch time.Time) *spanRec { return &spanRec{epoch: epoch} }

// add records one finished span and returns its index for children.
func (r *spanRec) add(name string, lane int, start, end time.Time, parent int32) int32 {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) >= maxSpans {
		r.dropped++
		return -1
	}
	r.spans = append(r.spans, span{name: name, lane: lane, start: start, end: end, parent: parent})
	return int32(len(r.spans) - 1)
}

func (r *spanRec) count() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// selfTimes returns each span name's total duration minus the part its
// direct children cover, in ns, with the span count per name.
func (r *spanRec) selfTimes() (self map[string]int64, n map[string]int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	self, n = map[string]int64{}, map[string]int{}
	for _, s := range r.spans {
		self[s.name] += s.end.Sub(s.start).Nanoseconds()
		n[s.name]++
	}
	for _, s := range r.spans {
		if s.parent >= 0 {
			self[r.spans[s.parent].name] -= s.end.Sub(s.start).Nanoseconds()
		}
	}
	return self, n
}

type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// write stores the spans at path as Chrome trace-event JSON.
func (r *spanRec) write(path string) error {
	r.mu.Lock()
	evs := make([]chromeEvent, 0, len(r.spans))
	for i, s := range r.spans {
		ev := chromeEvent{Name: s.name, Ph: "X", PID: 1, TID: s.lane,
			TS:   float64(s.start.Sub(r.epoch).Nanoseconds()) / 1e3,
			Dur:  float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
			Args: map[string]any{"id": i}}
		if s.parent >= 0 {
			ev.Args["parent"] = s.parent
		}
		evs = append(evs, ev)
	}
	r.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": evs}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Exposition: the registry rendered as Prometheus text format
// (/metrics) and as a JSON document (/statusz). Both are relaxed
// point-in-time reads — instruments keep recording while a scrape is
// in flight.
package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
	"strconv"
)

// WritePrometheus renders every instrument in the Prometheus text
// exposition format (version 0.0.4): one HELP/TYPE header per family,
// then one line per sample, with histogram buckets cumulative and
// +Inf-terminated. Families are emitted in sorted name order so
// successive scrapes diff cleanly.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	prevFamily := ""
	for _, inst := range r.snapshot() {
		if inst.desc.name != prevFamily {
			prevFamily = inst.desc.name
			if inst.desc.help != "" {
				bw.WriteString("# HELP ")
				bw.WriteString(inst.desc.name)
				bw.WriteByte(' ')
				bw.WriteString(inst.desc.help)
				bw.WriteByte('\n')
			}
			bw.WriteString("# TYPE ")
			bw.WriteString(inst.desc.name)
			bw.WriteByte(' ')
			bw.WriteString(inst.kind.String())
			bw.WriteByte('\n')
		}
		labels := labelString(inst.desc.labels)
		switch inst.kind {
		case kindCounter:
			bw.WriteString(inst.desc.name)
			bw.WriteString(labels)
			bw.WriteByte(' ')
			bw.WriteString(strconv.FormatUint(inst.counterValue(), 10))
			bw.WriteByte('\n')
		case kindGauge:
			bw.WriteString(inst.desc.name)
			bw.WriteString(labels)
			bw.WriteByte(' ')
			bw.WriteString(strconv.FormatFloat(inst.gaugeValue(), 'g', -1, 64))
			bw.WriteByte('\n')
		case kindHistogram:
			writeHistogram(bw, inst.desc.name, inst.desc.labels, inst.hist)
		}
	}
	return bw.Flush()
}

// writeHistogram emits the cumulative _bucket/_sum/_count triplet for
// one histogram. Bucket bounds are scaled into the exposition unit
// (seconds for latency histograms); only occupied buckets plus the
// mandatory +Inf terminator are written, which keeps a 252-bucket
// layout from bloating every scrape.
func writeHistogram(bw *bufio.Writer, name string, labels []Label, h *Histogram) {
	h.forBuckets(func(upper int64, cum uint64) {
		bw.WriteString(name)
		bw.WriteString("_bucket")
		bw.WriteString(labelStringWith(labels, Label{Name: "le",
			Value: strconv.FormatFloat(float64(upper)*h.scale, 'g', -1, 64)}))
		bw.WriteByte(' ')
		bw.WriteString(strconv.FormatUint(cum, 10))
		bw.WriteByte('\n')
	})
	count := h.count.Load()
	bw.WriteString(name)
	bw.WriteString("_bucket")
	bw.WriteString(labelStringWith(labels, Label{Name: "le", Value: "+Inf"}))
	bw.WriteByte(' ')
	bw.WriteString(strconv.FormatUint(count, 10))
	bw.WriteByte('\n')
	bw.WriteString(name)
	bw.WriteString("_sum")
	bw.WriteString(labelString(labels))
	bw.WriteByte(' ')
	bw.WriteString(strconv.FormatFloat(float64(h.sum.Load())*h.scale, 'g', -1, 64))
	bw.WriteByte('\n')
	bw.WriteString(name)
	bw.WriteString("_count")
	bw.WriteString(labelString(labels))
	bw.WriteByte(' ')
	bw.WriteString(strconv.FormatUint(count, 10))
	bw.WriteByte('\n')
}

// labelStringWith renders labels plus one extra pair (the histogram
// "le" bound), keeping the fixed labels' sorted order and appending
// the extra last — Prometheus does not require sorted labels, only
// consistent ones.
func labelStringWith(labels []Label, extra Label) string {
	return labelString(append(append(make([]Label, 0, len(labels)+1), labels...), extra))
}

// JSONMetric is one instrument in the WriteJSON document.
type JSONMetric struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Kind   string            `json:"kind"`
	Key    string            `json:"key,omitempty"` // Opts.Key: its STATS name
	Value  float64           `json:"value,omitempty"`
	Hist   *Summary          `json:"hist,omitempty"`
}

// WriteJSON renders the registry as a JSON array of metrics — the
// machine-readable /statusz body. Histograms appear as quantile
// summaries (raw recording unit) rather than full bucket vectors.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.MetricsJSON())
}

// MetricsJSON returns WriteJSON's document as a value, for embedding
// in a larger /statusz body.
func (r *Registry) MetricsJSON() []JSONMetric {
	var doc []JSONMetric
	for _, inst := range r.snapshot() {
		m := JSONMetric{Name: inst.desc.name, Kind: inst.kind.String(), Key: inst.desc.key}
		if len(inst.desc.labels) > 0 {
			m.Labels = make(map[string]string, len(inst.desc.labels))
			for _, l := range inst.desc.labels {
				m.Labels[l.Name] = l.Value
			}
		}
		switch inst.kind {
		case kindCounter:
			m.Value = float64(inst.counterValue())
		case kindGauge:
			m.Value = inst.gaugeValue()
		case kindHistogram:
			sum := inst.hist.Summary()
			m.Hist = &sum
		}
		doc = append(doc, m)
	}
	return doc
}

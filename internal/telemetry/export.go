package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4): grouped # HELP / # TYPE headers, one
// sample line per series, histograms as cumulative _bucket/_sum/_count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	prevName := ""
	for _, m := range r.snapshotMetrics() {
		if m.name != prevName {
			fmt.Fprintf(bw, "# HELP %s %s\n", m.name, m.help)
			fmt.Fprintf(bw, "# TYPE %s %s\n", m.name, m.kind)
			prevName = m.name
		}
		switch m.kind {
		case counterKind:
			fmt.Fprintf(bw, "%s %d\n", m.id, m.c.Value())
		case histogramKind:
			writePromHistogram(bw, m)
		}
	}
	return bw.Flush()
}

func writePromHistogram(w io.Writer, m *metric) {
	cum := m.h.Cumulative()
	for i, bound := range m.h.bounds {
		fmt.Fprintf(w, "%s %d\n",
			histSeries(m.name+"_bucket", m.labels, formatFloat(bound)), cum[i])
	}
	fmt.Fprintf(w, "%s %d\n", histSeries(m.name+"_bucket", m.labels, "+Inf"), cum[len(cum)-1])
	fmt.Fprintf(w, "%s %s\n", metricID(m.name+"_sum", m.labels), formatFloat(m.h.Sum()))
	fmt.Fprintf(w, "%s %d\n", metricID(m.name+"_count", m.labels), m.h.Count())
}

// histSeries renders a _bucket series id with the le label appended.
func histSeries(name string, labels []Label, le string) string {
	return metricID(name, append(append([]Label(nil), labels...), Label{"le", le}))
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WriteOpenMetrics renders every registered metric in the OpenMetrics 1.0
// text format. It differs from WritePrometheus in three ways mandated by
// the spec: counter families are announced without their _total suffix,
// histogram _bucket lines carry the bucket's exemplar (`# {trace_id="..."}
// value timestamp`) when one was recorded via ObserveExemplar, and the
// exposition ends with `# EOF`. Prometheus scrapes that do not negotiate
// OpenMetrics keep the plain 0.0.4 output and never see exemplars.
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	bw := bufio.NewWriter(w)
	prevName := ""
	for _, m := range r.snapshotMetrics() {
		if m.name != prevName {
			family := m.name
			if m.kind == counterKind {
				family = strings.TrimSuffix(family, "_total")
			}
			fmt.Fprintf(bw, "# HELP %s %s\n", family, m.help)
			fmt.Fprintf(bw, "# TYPE %s %s\n", family, m.kind)
			prevName = m.name
		}
		switch m.kind {
		case counterKind:
			fmt.Fprintf(bw, "%s %d\n", m.id, m.c.Value())
		case histogramKind:
			writeOpenMetricsHistogram(bw, m)
		}
	}
	fmt.Fprintf(bw, "# EOF\n")
	return bw.Flush()
}

func writeOpenMetricsHistogram(w io.Writer, m *metric) {
	cum := m.h.Cumulative()
	writeBucket := func(i int, le string) {
		fmt.Fprintf(w, "%s %d", histSeries(m.name+"_bucket", m.labels, le), cum[i])
		if ex := m.h.BucketExemplar(i); ex != nil {
			fmt.Fprintf(w, " # {trace_id=%q} %s %s",
				ex.TraceID, formatFloat(ex.Value), formatOMTime(ex.Time))
		}
		fmt.Fprintf(w, "\n")
	}
	for i, bound := range m.h.bounds {
		writeBucket(i, formatFloat(bound))
	}
	writeBucket(len(cum)-1, "+Inf")
	fmt.Fprintf(w, "%s %s\n", metricID(m.name+"_sum", m.labels), formatFloat(m.h.Sum()))
	fmt.Fprintf(w, "%s %d\n", metricID(m.name+"_count", m.labels), m.h.Count())
}

// formatOMTime renders an OpenMetrics timestamp: Unix seconds with
// millisecond precision.
func formatOMTime(t time.Time) string {
	return strconv.FormatFloat(float64(t.UnixMilli())/1e3, 'f', 3, 64)
}

// wantsOpenMetrics reports whether the scrape negotiated the OpenMetrics
// exposition, either by Accept header (how Prometheus asks since 2.5 when
// exemplar scraping is on) or by an explicit format=openmetrics override.
func wantsOpenMetrics(req *http.Request) bool {
	if req.URL.Query().Get("format") == "openmetrics" {
		return true
	}
	for _, accept := range req.Header.Values("Accept") {
		for _, part := range strings.Split(accept, ",") {
			mediaType, _, _ := strings.Cut(strings.TrimSpace(part), ";")
			if strings.TrimSpace(mediaType) == "application/openmetrics-text" {
				return true
			}
		}
	}
	return false
}

// HistogramSnapshot is the JSON form of one histogram: cumulative bucket
// counts plus count, sum and interpolated quantiles.
type HistogramSnapshot struct {
	Count   int64            `json:"count"`
	Sum     float64          `json:"sum"`
	Buckets []BucketSnapshot `json:"buckets"`
	P50     float64          `json:"p50"`
	P90     float64          `json:"p90"`
	P99     float64          `json:"p99"`
}

// BucketSnapshot is one cumulative histogram bucket. Exemplar, when
// present, is the most recent observation recorded into this bucket with a
// trace ID (ObserveExemplar), linking the bucket to one concrete query.
type BucketSnapshot struct {
	LE         float64   `json:"le"`
	Cumulative int64     `json:"cumulative"`
	Exemplar   *Exemplar `json:"exemplar,omitempty"`
}

// Snapshot is a point-in-time JSON-serializable view of a registry, keyed
// by metric id (name plus rendered labels). Values read concurrently with
// updates may be mutually skewed by in-flight increments.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures the current value of every registered metric.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	for _, m := range r.snapshotMetrics() {
		switch m.kind {
		case counterKind:
			s.Counters[m.id] = m.c.Value()
		case histogramKind:
			h := HistogramSnapshot{
				Count: m.h.Count(),
				Sum:   m.h.Sum(),
				P50:   m.h.Quantile(0.50),
				P90:   m.h.Quantile(0.90),
				P99:   m.h.Quantile(0.99),
			}
			cum := m.h.Cumulative()
			for i, b := range m.h.bounds {
				h.Buckets = append(h.Buckets,
					BucketSnapshot{LE: b, Cumulative: cum[i], Exemplar: m.h.BucketExemplar(i)})
			}
			s.Histograms[m.id] = h
		}
	}
	return s
}

// WriteJSON renders the snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// Handler serves the registry over HTTP: Prometheus text by default, the
// JSON snapshot with ?format=json, and OpenMetrics (with exemplars) when
// the scrape negotiates it via the Accept header or ?format=openmetrics.
// Mount it wherever the host command likes, conventionally at /metrics.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			if err := r.WriteJSON(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
			return
		}
		if wantsOpenMetrics(req) {
			w.Header().Set("Content-Type",
				"application/openmetrics-text; version=1.0.0; charset=utf-8")
			if err := r.WriteOpenMetrics(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := r.WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}

package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// WritePrometheus renders every registered family in the Prometheus text
// exposition format (version 0.0.4): families in registration order, one
// HELP/TYPE header each, histogram series expanded into cumulative
// _bucket{le=...} samples plus _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	families := make([]*family, len(r.families))
	copy(families, r.families)
	r.mu.Unlock()

	bw := bufio.NewWriter(w)
	for _, f := range families {
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range f.series {
			switch {
			case s.counter != nil:
				writeSample(bw, f.name, s.labels, "", formatUint(s.counter.Value()))
			case s.counterFunc != nil:
				writeSample(bw, f.name, s.labels, "", formatUint(s.counterFunc()))
			case s.gaugeFunc != nil:
				writeSample(bw, f.name, s.labels, "", formatFloat(s.gaugeFunc()))
			case s.histogram != nil:
				snap := s.histogram.Snapshot()
				cum := uint64(0)
				for i, bound := range snap.Bounds {
					cum += snap.Counts[i]
					writeSample(bw, f.name+"_bucket", s.labels, formatFloat(bound), formatUint(cum))
				}
				cum += snap.Counts[len(snap.Bounds)]
				writeSample(bw, f.name+"_bucket", s.labels, "+Inf", formatUint(cum))
				writeSample(bw, f.name+"_sum", s.labels, "", formatFloat(snap.Sum))
				writeSample(bw, f.name+"_count", s.labels, "", formatUint(snap.Count))
			}
		}
	}
	return bw.Flush()
}

// writeSample emits one `name{labels} value` line; le (when non-empty) is
// appended as the histogram bucket label.
func writeSample(w io.Writer, name string, labels []Label, le, value string) {
	io.WriteString(w, name)
	if len(labels) > 0 || le != "" {
		io.WriteString(w, "{")
		for i, l := range labels {
			if i > 0 {
				io.WriteString(w, ",")
			}
			fmt.Fprintf(w, "%s=%q", l.Key, escapeLabel(l.Value))
		}
		if le != "" {
			if len(labels) > 0 {
				io.WriteString(w, ",")
			}
			fmt.Fprintf(w, "le=%q", le)
		}
		io.WriteString(w, "}")
	}
	io.WriteString(w, " ")
	io.WriteString(w, value)
	io.WriteString(w, "\n")
}

func formatUint(v uint64) string { return strconv.FormatUint(v, 10) }

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// escapeLabel escapes a label value per the exposition format (the %q in
// writeSample adds the surrounding quotes and escapes " and \; newlines are
// escaped by Go's quoting as \n already, so nothing further is needed —
// this function exists to make that contract explicit and greppable).
func escapeLabel(v string) string { return v }

// escapeHelp escapes backslashes and newlines in HELP text.
func escapeHelp(h string) string {
	h = strings.ReplaceAll(h, `\`, `\\`)
	return strings.ReplaceAll(h, "\n", `\n`)
}

// Handler returns an http.Handler serving the registry in the text
// exposition format — the body of a /metrics endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

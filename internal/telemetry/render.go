package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// sample is one exposition line before formatting.
type sample struct {
	// suffix extends the family name ("_bucket", "_sum", "_count");
	// empty for plain samples.
	suffix string
	labels []string // label names, parallel to values
	values []string
	value  string // pre-formatted
}

// Render returns the registry's full Prometheus text exposition
// (version 0.0.4): families sorted by name, samples sorted by label
// values, values formatted canonically — the same input always renders
// to the same bytes.
func (r *Registry) Render() string {
	var b strings.Builder
	r.render(&b, true, true)
	return b.String()
}

// Snapshot returns the deterministic subset of the exposition: sample
// lines only (no HELP/TYPE), with volatile families (wall-clock
// derived) excluded. Scenario golden traces pin this output
// byte-for-byte.
func (r *Registry) Snapshot() string {
	var b strings.Builder
	r.render(&b, false, false)
	return b.String()
}

func (r *Registry) render(b *strings.Builder, header, includeVolatile bool) {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	for _, f := range fams {
		if f.volatile && !includeVolatile {
			continue
		}
		samples := f.samples()
		if len(samples) == 0 {
			continue
		}
		if header {
			fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
			fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.kind)
		}
		for _, s := range samples {
			b.WriteString(f.name)
			b.WriteString(s.suffix)
			if len(s.labels) > 0 {
				b.WriteByte('{')
				for i, l := range s.labels {
					if i > 0 {
						b.WriteByte(',')
					}
					b.WriteString(l)
					b.WriteString(`="`)
					b.WriteString(escapeLabel(s.values[i]))
					b.WriteByte('"')
				}
				b.WriteByte('}')
			}
			b.WriteByte(' ')
			b.WriteString(s.value)
			b.WriteByte('\n')
		}
	}
}

// samples flattens one family into sorted exposition lines.
func (f *family) samples() []sample {
	var out []sample
	switch {
	case f.collect != nil:
		f.collect(func(values []string, v float64) {
			vals := make([]string, len(values))
			copy(vals, values)
			out = append(out, sample{labels: f.labels, values: vals, value: formatValue(f.kind, v)})
		})
	case len(f.labels) == 0:
		out = f.appendInstance(out, nil, f.c, f.g, f.h)
	default:
		f.mu.Lock()
		children := make([]*child, 0, len(f.children))
		for _, c := range f.children {
			children = append(children, c)
		}
		f.mu.Unlock()
		sort.Slice(children, func(i, j int) bool { return lessStrings(children[i].values, children[j].values) })
		for _, c := range children {
			out = f.appendInstance(out, c.values, c.c, nil, c.h)
		}
	}
	if f.collect != nil {
		sort.Slice(out, func(i, j int) bool { return lessStrings(out[i].values, out[j].values) })
	}
	return out
}

func (f *family) appendInstance(out []sample, values []string, c *Counter, g *Gauge, h *Histogram) []sample {
	switch f.kind {
	case KindCounter:
		return append(out, sample{labels: f.labels, values: values,
			value: strconv.FormatUint(c.Value(), 10)})
	case KindGauge:
		return append(out, sample{labels: f.labels, values: values,
			value: formatFloat(g.Value())})
	case KindHistogram:
		bounds, counts := h.Buckets()
		var cum uint64
		for i, bound := range bounds {
			cum += counts[i]
			out = append(out, sample{
				suffix: "_bucket",
				labels: append(append([]string{}, f.labels...), "le"),
				values: append(append([]string{}, values...), formatFloat(bound)),
				value:  strconv.FormatUint(cum, 10),
			})
		}
		cum += counts[len(bounds)]
		out = append(out, sample{
			suffix: "_bucket",
			labels: append(append([]string{}, f.labels...), "le"),
			values: append(append([]string{}, values...), "+Inf"),
			value:  strconv.FormatUint(cum, 10),
		})
		out = append(out, sample{suffix: "_sum", labels: f.labels, values: values, value: formatFloat(h.Sum())})
		out = append(out, sample{suffix: "_count", labels: f.labels, values: values, value: strconv.FormatUint(h.Count(), 10)})
		return out
	}
	return out
}

// formatValue renders a collector-emitted float according to the
// family kind: counters that carry integral values print as integers.
func formatValue(kind Kind, v float64) string {
	if kind == KindCounter && v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return formatFloat(v)
}

// formatFloat is the canonical float rendering: integral values print
// without an exponent or trailing zeros, everything else in Go's
// shortest 'g' form.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func lessStrings(a, b []string) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

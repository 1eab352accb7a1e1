package telemetry

import (
	"fmt"
	"regexp"
	"strings"
	"sync"
)

// Kind classifies a metric family for the exposition TYPE line.
type Kind uint8

// Metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// nameRE enforces snake_case with at least one underscore, so every
// metric carries a subsystem prefix ("fib_lookups_total", never
// "lookups"). The vnslint metricname analyzer enforces the same shape
// statically at registration call sites.
var nameRE = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)+$`)

// labelRE is the legal shape of a label name.
var labelRE = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// CheckName reports whether name is a legal metric name.
func CheckName(name string) bool { return nameRE.MatchString(name) }

// CheckLabel reports whether name is a legal label name. The vnslint
// metricname analyzer applies the same check statically.
func CheckLabel(name string) bool { return labelRE.MatchString(name) }

// child is one labeled instance inside a vector family (counters and
// histograms; labeled gauges come from render-time collectors).
type child struct {
	values []string
	c      *Counter
	h      *Histogram
}

// family is one registered metric name: a scalar, a labeled vector, or
// a render-time collector.
type family struct {
	name     string
	help     string
	kind     Kind
	labels   []string
	volatile bool
	bounds   []float64

	// Scalar instance (labels empty, collect nil).
	c *Counter
	g *Gauge
	h *Histogram

	// Vector instances, keyed by joined label values.
	mu       sync.Mutex
	children map[string]*child

	// Render-time collector (RegisterFunc).
	collect func(emit func(labelValues []string, v float64))
}

// Registry holds metric families and renders them. All methods are safe
// for concurrent use; registration is idempotent by name (repeated
// registration with identical kind and labels returns the same
// handles, so packages can register lazily without coordination).
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// New creates an empty registry.
func New() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register returns the family for name, creating it on first use and
// panicking on a name/kind/label mismatch — misregistration is a
// programming error no caller can handle.
func (r *Registry) register(name, help string, kind Kind, labels []string, bounds []float64) *family {
	if !nameRE.MatchString(name) {
		panic(fmt.Sprintf("telemetry: metric name %q is not snake_case with a subsystem prefix", name))
	}
	for _, l := range labels {
		if !labelRE.MatchString(l) {
			panic(fmt.Sprintf("telemetry: metric %q label %q is not snake_case", name, l))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || !equalStrings(f.labels, labels) {
			panic(fmt.Sprintf("telemetry: metric %q re-registered as %v%v, was %v%v",
				name, kind, labels, f.kind, f.labels))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, labels: labels, bounds: bounds}
	if len(labels) > 0 {
		f.children = make(map[string]*child)
	} else {
		switch kind {
		case KindCounter:
			f.c = &Counter{}
		case KindGauge:
			f.g = &Gauge{}
		case KindHistogram:
			f.h = newHistogram(bounds)
		}
	}
	r.families[name] = f
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Counter registers (or finds) an unlabeled counter and returns its
// handle.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, KindCounter, nil, nil).c
}

// Gauge registers (or finds) an unlabeled gauge and returns its handle.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, KindGauge, nil, nil).g
}

// Histogram registers (or finds) an unlabeled histogram with the given
// upper bucket bounds (DefBuckets when nil) and returns its handle.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return r.register(name, help, KindHistogram, nil, bounds).h
}

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, KindCounter, labels, nil)}
}

// HistogramVec registers a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	return &HistogramVec{f: r.register(name, help, KindHistogram, labels, bounds)}
}

// RegisterFunc registers a render-time collector family: collect is
// invoked on every Render/Snapshot and emits one sample per label-value
// tuple. Use it to re-export state a subsystem already maintains
// atomically (netsim link counters, fib engine outcomes) without
// double-counting on the hot path.
func (r *Registry) RegisterFunc(name, help string, kind Kind, labels []string,
	collect func(emit func(labelValues []string, v float64))) {
	f := r.register(name, help, kind, labels, nil)
	r.mu.Lock()
	f.collect = collect
	r.mu.Unlock()
}

// MarkVolatile flags families whose values derive from the wall clock
// or other run-dependent state (compile latencies, convergence
// timings). Volatile families render normally on the admin endpoint
// but are excluded from Snapshot, which golden tests and the scenario
// harness require to be byte-stable.
func (r *Registry) MarkVolatile(names ...string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, n := range names {
		if f, ok := r.families[n]; ok {
			f.volatile = true
		}
	}
}

const keySep = "\x1f"

func (f *family) childFor(values []string) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, keySep)
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	vals := make([]string, len(values))
	copy(vals, values)
	c := &child{values: vals}
	switch f.kind {
	case KindCounter:
		c.c = &Counter{}
	case KindHistogram:
		c.h = newHistogram(f.bounds)
	}
	f.children[key] = c
	return c
}

// CounterVec is a labeled counter family. With resolves a label tuple
// to its pre-resolved handle; resolution locks a map and belongs on
// the cold path, the returned *Counter on the hot path.
type CounterVec struct{ f *family }

// With returns the counter for the given label values, creating it on
// first use.
func (v *CounterVec) With(values ...string) *Counter { return v.f.childFor(values).c }

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.childFor(values).h }

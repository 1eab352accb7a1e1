package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// TraceID identifies one trace: a packet's journey, a routing decision,
// or a media flow. IDs are assigned sequentially per Tracer so traces
// are deterministic under the virtual clock.
type TraceID uint64

// Attr is one key/value annotation on a span.
type Attr struct {
	Key, Value string
}

// String builds a string attribute.
func String(k, v string) Attr { return Attr{Key: k, Value: v} }

// Int builds an integer attribute.
func Int(k string, v int) Attr { return Attr{Key: k, Value: strconv.Itoa(v)} }

// Uint builds an unsigned integer attribute.
func Uint(k string, v uint64) Attr { return Attr{Key: k, Value: strconv.FormatUint(v, 10)} }

// Span is one timed operation inside a trace, attributed to the layer
// that performed it ("geoip", "rib", "fib", "netsim", "media"). Start
// and End are in the tracer's clock domain — simulated seconds for
// sim-driven tracers.
type Span struct {
	Trace TraceID
	Seq   uint64 // tracer-wide record order
	Layer string
	Name  string
	Start float64
	End   float64
	Attrs []Attr // sorted by key
}

// Tracer records spans into a bounded ring. It is virtual-clock aware:
// the clock function supplies timestamps (a netsim.Sim's Now for
// simulations, a wall-clock adapter for daemons), and trace IDs and
// sequence numbers are deterministic counters, never random. All
// methods are safe for concurrent use and safe on a nil *Tracer, so
// instrumentation sites call unconditionally.
type Tracer struct {
	mu      sync.Mutex
	clock   func() float64
	spans   []Span
	next    int
	full    bool
	nextID  uint64
	nextSeq uint64
	dropped uint64
}

// DefaultTraceCap bounds a tracer created with capacity <= 0.
const DefaultTraceCap = 4096

// NewTracer builds a tracer reading timestamps from clock (constant 0
// when nil) and retaining the last capacity spans.
func NewTracer(clock func() float64, capacity int) *Tracer {
	if clock == nil {
		clock = func() float64 { return 0 }
	}
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	return &Tracer{clock: clock, spans: make([]Span, capacity)}
}

// Now reads the tracer's clock.
func (t *Tracer) Now() float64 {
	if t == nil {
		return 0
	}
	return t.clock()
}

// StartTrace allocates the next trace ID. id 0 is never assigned, so
// it can mean "untraced".
func (t *Tracer) StartTrace() TraceID {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	t.nextID++
	id := TraceID(t.nextID)
	t.mu.Unlock()
	return id
}

// Record appends one span with explicit timestamps.
func (t *Tracer) Record(id TraceID, layer, name string, start, end float64, attrs ...Attr) {
	if t == nil {
		return
	}
	sorted := make([]Attr, len(attrs))
	copy(sorted, attrs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	t.mu.Lock()
	seq := t.nextSeq
	t.nextSeq++
	if t.full {
		t.dropped++
	}
	t.spans[t.next] = Span{Trace: id, Seq: seq, Layer: layer, Name: name, Start: start, End: end, Attrs: sorted}
	t.next++
	if t.next == len(t.spans) {
		t.next = 0
		t.full = true
	}
	t.mu.Unlock()
}

// Event records a zero-duration span stamped with the tracer's clock.
func (t *Tracer) Event(id TraceID, layer, name string, attrs ...Attr) {
	if t == nil {
		return
	}
	now := t.clock()
	t.Record(id, layer, name, now, now, attrs...)
}

// Len returns the number of retained spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.full {
		return len(t.spans)
	}
	return t.next
}

// Dropped returns how many spans the ring has evicted.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Spans returns the retained spans in record order (oldest first).
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.full {
		out := make([]Span, t.next)
		copy(out, t.spans[:t.next])
		return out
	}
	out := make([]Span, 0, len(t.spans))
	out = append(out, t.spans[t.next:]...)
	out = append(out, t.spans[:t.next]...)
	return out
}

// WriteJSONL writes the retained spans as canonical JSONL: one span
// per line, fixed key order, attrs sorted by key, timestamps with six
// decimal places. Equal span sequences always serialize to equal
// bytes, so golden tests can diff trace dumps directly.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	for _, s := range t.Spans() {
		if _, err := io.WriteString(w, s.JSON()+"\n"); err != nil {
			return err
		}
	}
	return nil
}

// JSON renders one span as its canonical JSON object.
func (s Span) JSON() string {
	var b strings.Builder
	fmt.Fprintf(&b, `{"trace":%d,"seq":%d,"layer":%s,"name":%s,"start":%s,"end":%s,"attrs":{`,
		s.Trace, s.Seq, jsonString(s.Layer), jsonString(s.Name),
		strconv.FormatFloat(s.Start, 'f', 6, 64), strconv.FormatFloat(s.End, 'f', 6, 64))
	for i, a := range s.Attrs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(jsonString(a.Key))
		b.WriteByte(':')
		b.WriteString(jsonString(a.Value))
	}
	b.WriteString("}}")
	return b.String()
}

func jsonString(s string) string {
	out, err := json.Marshal(s)
	if err != nil {
		return `""`
	}
	return string(out)
}

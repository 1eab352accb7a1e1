package telemetry

import (
	"strings"
	"testing"
)

func TestTracerSequentialIDs(t *testing.T) {
	tr := NewTracer(nil, 16)
	if got := tr.StartTrace(); got != 1 {
		t.Fatalf("first trace ID = %d, want 1", got)
	}
	if got := tr.StartTrace(); got != 2 {
		t.Fatalf("second trace ID = %d, want 2", got)
	}
}

func TestTracerVirtualClock(t *testing.T) {
	now := 0.0
	tr := NewTracer(func() float64 { return now }, 16)
	id := tr.StartTrace()
	now = 1.5
	tr.Event(id, "netsim", "hop", String("link", "LON-NYC"))
	spans := tr.Spans()
	if len(spans) != 1 {
		t.Fatalf("len(spans) = %d, want 1", len(spans))
	}
	if spans[0].Start != 1.5 || spans[0].End != 1.5 {
		t.Errorf("event not stamped with virtual clock: %+v", spans[0])
	}
}

func TestTracerRingEviction(t *testing.T) {
	tr := NewTracer(nil, 3)
	id := tr.StartTrace()
	for i := 0; i < 5; i++ {
		tr.Record(id, "test", "op", float64(i), float64(i), Int("i", i))
	}
	if tr.Len() != 3 {
		t.Fatalf("Len() = %d, want 3", tr.Len())
	}
	if tr.Dropped() != 2 {
		t.Fatalf("Dropped() = %d, want 2", tr.Dropped())
	}
	spans := tr.Spans()
	for i, s := range spans {
		if want := uint64(i + 2); s.Seq != want {
			t.Errorf("span %d Seq = %d, want %d (oldest-first order)", i, s.Seq, want)
		}
	}
}

func TestSpanJSONCanonical(t *testing.T) {
	tr := NewTracer(nil, 8)
	id := tr.StartTrace()
	// Attrs deliberately out of order: canonical form sorts them.
	tr.Record(id, "rib", "decision", 0.25, 0.25,
		String("prefix", "10.0.0.0/24"), String("egress", "LON"), Int("candidates", 3))
	var b strings.Builder
	if err := tr.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	want := `{"trace":1,"seq":0,"layer":"rib","name":"decision","start":0.250000,"end":0.250000,"attrs":{"candidates":"3","egress":"LON","prefix":"10.0.0.0/24"}}` + "\n"
	if b.String() != want {
		t.Errorf("JSONL = %q, want %q", b.String(), want)
	}
}

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	id := tr.StartTrace()
	if id != 0 {
		t.Errorf("nil tracer StartTrace = %d, want 0", id)
	}
	tr.Record(id, "x", "y", 0, 0)
	tr.Event(id, "x", "y")
	if tr.Now() != 0 || tr.Len() != 0 || tr.Dropped() != 0 || tr.Spans() != nil {
		t.Error("nil tracer accessors not zero")
	}
	if err := tr.WriteJSONL(&strings.Builder{}); err != nil {
		t.Errorf("nil tracer WriteJSONL: %v", err)
	}
}

func TestTracerDeterminism(t *testing.T) {
	build := func() string {
		now := 0.0
		tr := NewTracer(func() float64 { return now }, 64)
		for f := 0; f < 3; f++ {
			id := tr.StartTrace()
			now = float64(f) * 0.1
			tr.Event(id, "geoip", "lookup", String("addr", "192.0.2.1"))
			tr.Record(id, "fib", "lookup", now, now+0.001, Int("gen", f))
		}
		var b strings.Builder
		_ = tr.WriteJSONL(&b)
		return b.String()
	}
	if build() != build() {
		t.Error("identical trace sequences serialize to different bytes")
	}
}

package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Calls: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "decode", Calls: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "encode", Calls: 21, Start: 40, End: 82},
		{ID: 4, Name: "op", Calls: 1, Start: 200, End: 250},
	}
	self := selfTimes(spans)
	if got := self["op"]; got.SelfNs != 100-20-42+50 || got.Calls != 2 {
		t.Errorf("op = %+v", got)
	}
	if got := self["encode"].perCallNs(); got != 2 {
		t.Errorf("encode per call = %v, want 2", got)
	}
	if got := (layerTime{}).perCallNs(); got != 0 {
		t.Errorf("no calls: per call = %v, want 0", got)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 0, 0)
	tr.end(id, 1)
	if id != 0 || tr.len() != 0 {
		t.Errorf("nil tracer: id=%d len=%d", id, tr.len())
	}
}

func TestTraceFileHoldsOneSpanPerLine(t *testing.T) {
	tr := newTracer()
	root := tr.begin("op", 0, 7)
	child := tr.begin("bgp.unmarshal", root, 7)
	tr.end(child, 3)
	tr.end(root, 1)
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var got []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		got = append(got, s)
	}
	if len(got) != 2 || got[1].Parent != got[0].ID || got[1].Op != 7 || got[1].Calls != 3 || got[1].Name != "bgp.unmarshal" {
		t.Errorf("spans read back: %+v", got)
	}
	if got[0].End < got[1].End || got[1].Start < got[0].Start {
		t.Errorf("child not inside parent: %+v", got)
	}
}

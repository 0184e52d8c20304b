package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", StartNs: 0, EndNs: 100},
		// Two overlapping children cover [10, 50] once: 40.
		{ID: 2, Parent: 1, Name: "a", StartNs: 10, EndNs: 40},
		{ID: 3, Parent: 1, Name: "b", StartNs: 30, EndNs: 50},
		// A child sticking out of its parent counts only inside it: 10.
		{ID: 4, Parent: 1, Name: "c", StartNs: 90, EndNs: 120},
		// A grandchild is its parent's business, not the root's.
		{ID: 5, Parent: 2, Name: "d", StartNs: 15, EndNs: 25},
		{ID: 6, Name: "lone", StartNs: 200, EndNs: 260},
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 50, 2: 20, 3: 20, 4: 30, 5: 10, 6: 60}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %d, want %d", id, self[id], w)
		}
	}
	byName := selfByName(spans)
	if byName["root"] != 50e-6 || byName["lone"] != 60e-6 {
		t.Errorf("self by name %v", byName)
	}
}

func TestBlackoutPartsAddUp(t *testing.T) {
	// The subscriber's three gap parts are consecutive, so a blackout
	// span fully covered by them has no self time left.
	tr := &tracer{}
	b := tr.add("cluster.blackout", "migration-0", 0, 1000, 9000)
	tr.add("cluster.sever_detect", "migration-0", b, 1000, 3000)
	tr.add("cluster.resubscribe", "migration-0", b, 3000, 3500)
	tr.add("cluster.first_record", "migration-0", b, 3500, 9000)
	if self := selfTimes(tr.all())[b]; self != 0 {
		t.Errorf("blackout self time %d, want 0", self)
	}
}

func TestTracerNilIsNoOp(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", "t", 0)
	tr.end(id)
	if id != 0 || tr.all() != nil || tr.add("y", "t", 0, 1, 2) != 0 {
		t.Error("nil tracer recorded something")
	}
}

func TestWriteSpans(t *testing.T) {
	tr := &tracer{}
	root := tr.begin("bench.iteration", "iteration-0", 0)
	tr.end(tr.begin("fleet.run", "iteration-0", root))
	tr.end(root)
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := writeSpans(path, tr.all()); err != nil {
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
	if len(got) != 2 || got[1].Parent != got[0].ID || got[1].Trace != "iteration-0" || got[0].EndNs < got[1].EndNs {
		t.Errorf("spans %+v", got)
	}
}

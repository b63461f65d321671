package bmc

import (
	"strings"
	"testing"

	"emmver/internal/aig"
	"emmver/internal/rtl"
)

// TestReplayRejectsMalformedWitness feeds Replay witnesses that do not fit
// the design: each must fail validation with a descriptive error instead
// of panicking.
func TestReplayRejectsMalformedWitness(t *testing.T) {
	m := rtl.NewModule("replay")
	mem := m.Memory("mem", 2, 3, aig.MemArbitrary)
	rd := mem.Read(m.Input("ra", 2), aig.True)
	flag := m.RegisterX("flag", 1)
	flag.SetNext(flag.Q)
	m.Done(flag)
	m.AssertAlways("ne5", m.EqConst(rd, 5).Not())

	r := Check(m.N, 0, Options{MaxDepth: 4, UseEMM: true, ValidateWitness: true})
	if r.Kind != KindCE {
		t.Fatalf("expected CE, got %v", r.Kind)
	}
	if err := r.Witness.Replay(m.N, 0); err != nil {
		t.Fatalf("genuine witness rejected: %v", err)
	}

	edit := func(f func(w *Witness)) *Witness {
		w := *r.Witness
		f(&w)
		return &w
	}
	for _, tc := range []struct {
		name string
		w    *Witness
		prop int
		want string
	}{
		{"too few frames", edit(func(w *Witness) { w.Inputs = w.Inputs[:w.Length] }), 0, "input frames"},
		{"no frames", edit(func(w *Witness) { w.Inputs = nil }), 0, "input frames"},
		{"negative length", edit(func(w *Witness) { w.Length = -1 }), 0, "input frames"},
		{"prop above range", r.Witness, 1, "property 1 out of range"},
		{"negative prop", r.Witness, -1, "property -1 out of range"},
		{"memory index", edit(func(w *Witness) { w.MemInit = []map[int]uint64{{}, {0: 1}} }), 0, "initializes 2 memories"},
		{"address above range", edit(func(w *Witness) { w.MemInit = []map[int]uint64{{4: 1}} }), 0, "mem[4]"},
		{"negative address", edit(func(w *Witness) { w.MemInit = []map[int]uint64{{-1: 1}} }), 0, "mem[-1]"},
		{"foreign latch", edit(func(w *Witness) { w.InitLatches = map[aig.NodeID]bool{aig.NodeID(m.N.NumNodes() + 7): true} }), 0, "not a latch"},
		{"non-latch node", edit(func(w *Witness) { w.InitLatches = map[aig.NodeID]bool{rd[0].Node(): true} }), 0, "not a latch"},
	} {
		err := tc.w.Replay(m.N, tc.prop)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Replay error %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
}

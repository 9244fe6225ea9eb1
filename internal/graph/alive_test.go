package graph

import (
	"testing"

	"repro/internal/rng"
)

// TestAliveListTracksRemovals: the incrementally maintained list must
// always hold exactly the alive nodes (any order), with N() as its length.
func TestAliveListTracksRemovals(t *testing.T) {
	g := wcGraph()
	r := NewResidual(g)
	check := func() {
		t.Helper()
		list := r.AliveList()
		if len(list) != r.N() {
			t.Fatalf("AliveList length %d, N() %d", len(list), r.N())
		}
		seen := make(map[NodeID]bool, len(list))
		for _, u := range list {
			if !r.Alive(u) {
				t.Fatalf("dead node %d in AliveList", u)
			}
			if seen[u] {
				t.Fatalf("duplicate node %d in AliveList", u)
			}
			seen[u] = true
		}
		sorted := r.AliveNodes()
		if len(sorted) != len(list) {
			t.Fatalf("AliveNodes %d entries, AliveList %d", len(sorted), len(list))
		}
		for i := 1; i < len(sorted); i++ {
			if sorted[i-1] >= sorted[i] {
				t.Fatal("AliveNodes not strictly increasing")
			}
		}
	}
	check()
	for _, u := range []NodeID{3, 0, 3, 4} { // includes a double-remove
		r.Remove(u)
		check()
	}
	cp := r.Clone()
	if got, want := cp.AliveList(), r.AliveList(); len(got) != len(want) {
		t.Fatalf("clone alive list length %d, want %d", len(got), len(want))
	} else {
		for i := range want {
			if got[i] != want[i] {
				t.Fatal("clone alive-list order diverged")
			}
		}
	}
	r.Reset()
	check()
	if r.N() != g.N() {
		t.Fatalf("after Reset N() = %d, want %d", r.N(), g.N())
	}
	// Reset restores increasing order, so post-Reset sampling is
	// independent of the pre-Reset removal history.
	for i, u := range r.AliveList() {
		if u != NodeID(i) {
			t.Fatalf("after Reset AliveList[%d] = %d", i, u)
		}
	}
}

// TestAliveListRandomizedAgainstMask cross-checks the swap-remove list
// against a straightforward boolean mask over many random removals.
func TestAliveListRandomizedAgainstMask(t *testing.T) {
	g := wcGraph()
	r := NewResidual(g)
	mask := make([]bool, g.N())
	rr := rng.New(13)
	for i := 0; i < 200; i++ {
		u := NodeID(rr.Intn(g.N()))
		wasAlive := !mask[u]
		if got := r.Remove(u); got != wasAlive {
			t.Fatalf("Remove(%d) = %v, want %v", u, got, wasAlive)
		}
		mask[u] = true
		alive := 0
		for _, dead := range mask {
			if !dead {
				alive++
			}
		}
		if r.N() != alive {
			t.Fatalf("N() = %d, mask says %d", r.N(), alive)
		}
		for v := 0; v < g.N(); v++ {
			if r.Alive(NodeID(v)) == mask[v] {
				t.Fatalf("Alive(%d) = %v, mask %v", v, r.Alive(NodeID(v)), !mask[v])
			}
		}
		if i%37 == 0 {
			r.Reset()
			for v := range mask {
				mask[v] = false
			}
		}
	}
}

// TestAliveBitsTrackMembership: the membership bitset behind Alive (and
// read directly by Collection.Filter) must agree with the alive list
// across word boundaries, with the bits past N clear, after removals, a
// clone, a restore and a reset.
func TestAliveBitsTrackMembership(t *testing.T) {
	g := MustFromEdges(200, true, nil) // 3 full words plus an 8-bit tail
	r := NewResidual(g)
	check := func(where string, r *Residual) {
		t.Helper()
		alive := make([]bool, g.N())
		for _, u := range r.AliveList() {
			alive[u] = true
		}
		bits := r.AliveBits()
		if len(bits) != (g.N()+63)/64 {
			t.Fatalf("%s: %d bitset words for %d nodes", where, len(bits), g.N())
		}
		for u := 0; u < len(bits)*64; u++ {
			set := bits[u>>6]>>(uint(u)&63)&1 != 0
			if want := u < g.N() && alive[u]; set != want {
				t.Fatalf("%s: bit %d = %v, want %v", where, u, set, want)
			}
			if u < g.N() && r.Alive(NodeID(u)) != set {
				t.Fatalf("%s: Alive(%d) disagrees with its bit", where, u)
			}
		}
	}
	check("fresh", r)
	for _, u := range []NodeID{0, 63, 64, 65, 127, 128, 199, 17, 17} {
		r.Remove(u)
	}
	check("after removals", r)
	cp := r.Clone()
	check("clone", cp)
	cp.Remove(5)
	check("original after clone mutated", r)
	restored := NewResidual(g)
	if err := restored.RestoreAlive(r.AliveList(), r.Version()); err != nil {
		t.Fatal(err)
	}
	check("restored", restored)
	r.Reset()
	check("reset", r)
}

package adaptive

import (
	"runtime"
	"testing"

	"repro/internal/cascade"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// TestEnvironmentObserveAllocBudget: after its first call,
// Environment.Observe allocates O(|A(u)|) bytes — the returned activated
// set — and nothing proportional to n, on a graph large enough (>= 100k
// nodes) that one n-sized mask per call would dominate.
func TestEnvironmentObserveAllocBudget(t *testing.T) {
	spec, err := gen.Lookup("dblp-s")
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.Generate(spec.Config(0.16))
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	if n < 100_000 {
		t.Fatalf("graph has %d nodes, want >= 100k", n)
	}
	env := NewEnvironment(cascade.Sample(g, cascade.IC, rng.New(3)))
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	if first := allocated(func() { env.Observe(0) }); first < uint64(n) {
		t.Fatalf("first Observe allocated %d B, expected its n = %d B mask (is the measurement live?)", first, n)
	}
	const perNode, perCall = 32, 512 // append growth of the 4-byte result, plus slack
	r := rng.New(5)
	activated := 0
	for i := 0; i < 300; i++ {
		u := graph.NodeID(r.Intn(n))
		var a []graph.NodeID
		b := allocated(func() { a = env.Observe(u) })
		if budget := uint64(perNode*len(a) + perCall); b > budget {
			t.Fatalf("Observe(%d) activated %d nodes and allocated %d B, budget %d B (n = %d)", u, len(a), b, budget, n)
		}
		activated += len(a)
	}
	if activated == 0 {
		t.Fatal("no observation activated anything")
	}
}

package cascade

import (
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// referenceSampleIC is the per-edge Coin sampler the bulk IC kernel
// replaced: node by node over the out-CSR, one rng.Coin per edge.
func referenceSampleIC(g *graph.Graph, r *rng.RNG) [][]graph.NodeID {
	live := make([][]graph.NodeID, g.N())
	for u := range live {
		adj, ps := g.OutNeighbors(graph.NodeID(u))
		for i, v := range adj {
			if r.Coin(ps[i]) {
				live[u] = append(live[u], v)
			}
		}
	}
	return live
}

// assertSampleICMatchesReference samples g under IC with the kernel and
// with the reference from the same seed, and fails unless every node's
// live out-list is identical and both generators continue with the same
// output.
func assertSampleICMatchesReference(t *testing.T, name string, g *graph.Graph, seed uint64) {
	t.Helper()
	kr, rr := rng.New(seed), rng.New(seed)
	rz := Sample(g, IC, kr)
	want := referenceSampleIC(g, rr)
	total := 0
	for u := range want {
		got := rz.LiveOut(graph.NodeID(u))
		if !slices.Equal(got, want[u]) {
			t.Fatalf("%s seed %d: node %d live out %v, reference %v", name, seed, u, got, want[u])
		}
		total += len(got)
	}
	if liveEdgeCount(rz) != total {
		t.Fatalf("%s seed %d: %d live edges stored, %d listed", name, seed, liveEdgeCount(rz), total)
	}
	if a, b := kr.Uint64(), rr.Uint64(); a != b {
		t.Fatalf("%s seed %d: next draw %d after the kernel, %d after the reference", name, seed, a, b)
	}
}

// mixedGraph builds a random graph whose edges mix p = 1, 1/k and
// arbitrary fractional probabilities, with some isolated and some
// high-degree nodes.
func mixedGraph(seed uint64, n, m int, degreeOrder bool) *graph.Graph {
	r := rng.New(seed)
	b := graph.NewBuilder(n, true)
	b.SetDegreeOrder(degreeOrder)
	for i := 0; i < m; i++ {
		u := graph.NodeID(r.Intn(n))
		if i%5 == 0 {
			u = graph.NodeID(r.Intn(4)) // hubs
		}
		v := graph.NodeID(r.Intn(n))
		if u == v || int(u) >= n {
			continue
		}
		var p float64
		switch r.Intn(3) {
		case 0:
			p = 1
		case 1:
			p = 1 / float64(2+r.Intn(20))
		default:
			p = 1 - r.Float64() // (0, 1]
		}
		if err := b.AddEdge(u, v, p); err != nil {
			panic(err)
		}
	}
	return b.Build()
}

func TestSampleICMatchesPerEdgeCoinReference(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		n := 5 + int(seed*7)%200
		g := mixedGraph(seed, n, int(seed*37)%900, false)
		assertSampleICMatchesReference(t, "mixed", g, seed*101)
	}
	// Every p = 1: no coin draws at all, every edge live.
	all := graph.MustFromEdges(3, true, []graph.Edge{{From: 0, To: 1, P: 1}, {From: 1, To: 2, P: 1}, {From: 2, To: 0, P: 1}})
	assertSampleICMatchesReference(t, "all-certain", all, 4)
	assertSampleICMatchesReference(t, "fig1", fig1Graph(), 9)
}

func TestSampleICMatchesReferenceOnDegreeOrderedGraph(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		g := mixedGraph(seed, 300, 2000, true)
		if !g.Renumbered() {
			t.Fatal("degree-ordered build is not renumbered")
		}
		assertSampleICMatchesReference(t, "degree-ordered", g, seed)
	}
}

func TestSampleICMatchesReferenceOnDeltaGraph(t *testing.T) {
	spec, err := gen.Lookup("nethept-s")
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.Generate(spec.Config(0.05))
	if err != nil {
		t.Fatal(err)
	}
	assertSampleICMatchesReference(t, "nethept-s@0.05", g, 17)
	for round := uint64(1); round <= 3; round++ {
		ins, del := gen.ChurnDeltas(g, 0.02, rng.New(round))
		if g, _, err = g.ApplyDelta(ins, del); err != nil {
			t.Fatal(err)
		}
		assertSampleICMatchesReference(t, "delta", g, 17+round)
	}
}

// TestSampleICLiveBufferSizedFromSurvivors: the live-edge buffer tracks
// the edges that survive instead of a fixed fraction of m.
func TestSampleICLiveBufferSizedFromSurvivors(t *testing.T) {
	spec, err := gen.Lookup("nethept-s")
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.Generate(spec.Config(0.5))
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 5; seed++ {
		rz := Sample(g, IC, rng.New(seed))
		live := liveEdgeCount(rz)
		if c := cap(rz.outAdj); c > live*5/4+1024 {
			t.Fatalf("seed %d: live-edge capacity %d for %d live edges (m = %d)", seed, c, live, g.M())
		}
	}
}

// TestMonteCarloSpreadPinned pins MonteCarloSpread and MonteCarloSpreadOn
// on the Fig. 1 graph to the values the per-edge Coin sampler produced.
// Both continue one stream across reps, so a single moved draw changes
// every later realization and the totals.
func TestMonteCarloSpreadPinned(t *testing.T) {
	g := fig1Graph()
	r := rng.New(77)
	if got := MonteCarloSpread(g, IC, []graph.NodeID{0, 1, 5}, 5000, r); got != 30049.0/5000 {
		t.Errorf("MonteCarloSpread = %v, want %v", got, 30049.0/5000)
	}
	if got := r.Uint64(); got != 14091160650432487402 {
		t.Errorf("next draw after MonteCarloSpread = %d", got)
	}
	res := graph.NewResidual(g)
	res.Remove(2)
	r = rng.New(78)
	if got := MonteCarloSpreadOn(res, IC, []graph.NodeID{0, 1, 5}, 5000, r); got != 4.995 {
		t.Errorf("MonteCarloSpreadOn = %v, want 4.995", got)
	}
	if got := r.Uint64(); got != 9608668455110490760 {
		t.Errorf("next draw after MonteCarloSpreadOn = %d", got)
	}
}

// referenceActivated is the allocating BFS Activated used before
// observation took a caller-owned mask: seeds first, then FIFO expansion
// over live out-edges, skipping visited and dead nodes.
func referenceActivated(rz *Realization, res *graph.Residual, seeds []graph.NodeID) []graph.NodeID {
	visited := make([]bool, rz.Graph().N())
	var queue []graph.NodeID
	push := func(u graph.NodeID) {
		if !visited[u] && (res == nil || res.Alive(u)) {
			visited[u] = true
			queue = append(queue, u)
		}
	}
	for _, s := range seeds {
		push(s)
	}
	for head := 0; head < len(queue); head++ {
		for _, v := range rz.LiveOut(queue[head]) {
			push(v)
		}
	}
	return queue
}

// TestAppendActivatedReusedMaskKeepsBFSOrder: observing cascade after
// cascade through one shared mask yields exactly the reference BFS order
// (which the residual's alive-list order, and so later RR root draws,
// depend on), preserves dst's prefix, and leaves the mask all false.
func TestAppendActivatedReusedMaskKeepsBFSOrder(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		g := mixedGraph(seed, 400, 1600, false)
		rz := Sample(g, IC, rng.New(seed))
		res := graph.NewResidual(g)
		visited := make([]bool, g.N())
		r := rng.New(seed + 50)
		for i := 0; i < 60; i++ {
			seeds := []graph.NodeID{graph.NodeID(r.Intn(g.N())), graph.NodeID(r.Intn(g.N()))}
			want := referenceActivated(rz, res, seeds)
			got := AppendActivated([]graph.NodeID{-7}, rz, res, seeds, visited)
			if got[0] != -7 || !slices.Equal(got[1:], want) {
				t.Fatalf("seed %d step %d: AppendActivated = %v, reference BFS = %v", seed, i, got, want)
			}
			if slices.Contains(visited, true) {
				t.Fatalf("seed %d step %d: visited mask not reset", seed, i)
			}
			if i%2 == 0 {
				res.RemoveAll(got[1:])
			}
		}
	}
}

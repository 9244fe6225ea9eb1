package ris

import (
	"fmt"
	"testing"

	"repro/internal/cascade"
	"repro/internal/graph"
	"repro/internal/rng"
)

// refFilter is the reference Filter is differentially tested against:
// the set-by-set loop it replaced, which tests every set in order, moves
// each survivor with its own copy, and rewrites every offset behind the
// first drop.
func refFilter(c *Collection, res *graph.Residual) int {
	if c.version == res.Version() {
		return c.Len()
	}
	cov := c.coverage
	covSeen := 0
	w := 0         // write cursor over sets
	wa := int32(0) // write cursor over arena
	for i := 0; i < c.Len(); i++ {
		lo, hi := c.offsets[i], c.offsets[i+1]
		alive := true
		for _, u := range c.arena[lo:hi] {
			if !res.Alive(u) {
				alive = false
				break
			}
		}
		if !alive {
			if cov != nil && i < cov.seen {
				for _, u := range c.arena[lo:hi] {
					cov.counts[u]--
				}
			}
			continue
		}
		if cov != nil && i < cov.seen {
			covSeen++
		}
		copy(c.arena[wa:wa+(hi-lo)], c.arena[lo:hi])
		c.roots[w] = c.roots[i]
		w++
		wa += hi - lo
		c.offsets[w] = wa
	}
	c.roots = c.roots[:w]
	c.offsets = c.offsets[:w+1]
	c.arena = c.arena[:wa]
	c.invValid = false
	c.scratch = nil
	if cov != nil {
		cov.seen = covSeen
	}
	c.version = res.Version()
	c.requested = w
	return w
}

// refInvalidate is InvalidateTouching's reference: the same set-by-set
// loop against a marked-node scan.
func refInvalidate(c *Collection, touched []graph.NodeID) int {
	if len(touched) == 0 || c.Len() == 0 {
		return c.Len()
	}
	marked := make([]bool, c.n)
	for _, u := range touched {
		marked[u] = true
	}
	cov := c.coverage
	covSeen := 0
	w := 0         // write cursor over sets
	wa := int32(0) // write cursor over arena
	for i := 0; i < c.Len(); i++ {
		lo, hi := c.offsets[i], c.offsets[i+1]
		keep := true
		for _, u := range c.arena[lo:hi] {
			if marked[u] {
				keep = false
				break
			}
		}
		if !keep {
			if cov != nil && i < cov.seen {
				for _, u := range c.arena[lo:hi] {
					cov.counts[u]--
				}
			}
			continue
		}
		if cov != nil && i < cov.seen {
			covSeen++
		}
		copy(c.arena[wa:wa+(hi-lo)], c.arena[lo:hi])
		c.roots[w] = c.roots[i]
		w++
		wa += hi - lo
		c.offsets[w] = wa
	}
	c.roots = c.roots[:w]
	c.offsets = c.offsets[:w+1]
	c.arena = c.arena[:wa]
	c.invValid = false
	c.scratch = nil
	if cov != nil {
		cov.seen = covSeen
	}
	c.requested = w
	return w
}

// cloneCollection deep-copies the state the compaction reads and writes:
// arena, offsets, roots, version, requested, and an attached Coverage.
func cloneCollection(c *Collection) *Collection {
	cp := &Collection{
		n:         c.n,
		arena:     append([]graph.NodeID(nil), c.arena...),
		offsets:   append([]int32(nil), c.offsets...),
		roots:     append([]graph.NodeID(nil), c.roots...),
		version:   c.version,
		requested: c.requested,
	}
	if c.coverage != nil {
		cp.coverage = &Coverage{
			c:      cp,
			counts: append([]int32(nil), c.coverage.counts...),
			seen:   c.coverage.seen,
		}
	}
	return cp
}

// requireSameCollection fails unless got and want hold byte-identical
// arena, offsets and roots, the same version and requested count, and
// identical Coverage counts and counted prefix.
func requireSameCollection(t *testing.T, where string, got, want *Collection) {
	t.Helper()
	if len(got.arena) != len(want.arena) || len(got.offsets) != len(want.offsets) || len(got.roots) != len(want.roots) {
		t.Fatalf("%s: lengths arena/offsets/roots %d/%d/%d, want %d/%d/%d", where,
			len(got.arena), len(got.offsets), len(got.roots), len(want.arena), len(want.offsets), len(want.roots))
	}
	for i := range want.arena {
		if got.arena[i] != want.arena[i] {
			t.Fatalf("%s: arena[%d] = %d, want %d", where, i, got.arena[i], want.arena[i])
		}
	}
	for i := range want.offsets {
		if got.offsets[i] != want.offsets[i] {
			t.Fatalf("%s: offsets[%d] = %d, want %d", where, i, got.offsets[i], want.offsets[i])
		}
	}
	for i := range want.roots {
		if got.roots[i] != want.roots[i] {
			t.Fatalf("%s: roots[%d] = %d, want %d", where, i, got.roots[i], want.roots[i])
		}
	}
	if got.version != want.version || got.requested != want.requested {
		t.Fatalf("%s: version/requested %d/%d, want %d/%d", where, got.version, got.requested, want.version, want.requested)
	}
	if (got.coverage == nil) != (want.coverage == nil) {
		t.Fatalf("%s: coverage attached %v, want %v", where, got.coverage != nil, want.coverage != nil)
	}
	if want.coverage == nil {
		return
	}
	if got.coverage.seen != want.coverage.seen {
		t.Fatalf("%s: coverage seen %d, want %d", where, got.coverage.seen, want.coverage.seen)
	}
	for u := range want.coverage.counts {
		if got.coverage.counts[u] != want.coverage.counts[u] {
			t.Fatalf("%s: coverage count of node %d = %d, want %d", where, u, got.coverage.counts[u], want.coverage.counts[u])
		}
	}
}

// compactCase is one collection shape for the differential tests: sets
// private[i] ∪ shared, where node i (i < nsets) appears only in set i,
// so killing node i drops exactly set i. Nodes [nsets, n) are the shared
// pool; killing one of them drops whatever sets hold it.
type compactCase struct {
	name    string
	nsets   int
	drop    []int // set ids whose private node dies
	shared  int   // shared-pool nodes that die as well (random)
	empty   int   // every empty-th set is added with no nodes (0: none)
	covAt   int   // attach Coverage after this many sets (-1: never)
	covTail bool  // leave sets after covAt uncounted (seen < Len)
}

func compactCases() []compactCase {
	return []compactCase{
		{name: "empty-collection", nsets: 0, covAt: -1},
		{name: "no-drops", nsets: 40, covAt: 0},
		{name: "all-dropped", nsets: 40, drop: seq(0, 40), covAt: 0},
		{name: "first-and-last", nsets: 40, drop: []int{0, 39}, covAt: 0},
		{name: "adjacent", nsets: 40, drop: []int{7, 8, 9, 20, 21}, covAt: 0},
		{name: "empty-sets", nsets: 60, drop: []int{0, 3, 4, 30, 59}, empty: 3, covAt: 0},
		{name: "empty-sets-only", nsets: 10, empty: 1, covAt: 0},
		{name: "coverage-tail", nsets: 60, drop: []int{2, 25, 26, 40, 55}, covAt: 30, covTail: true},
		{name: "coverage-tail-all-dropped", nsets: 30, drop: seq(0, 30), covAt: 12, covTail: true},
		{name: "no-coverage", nsets: 50, drop: []int{1, 10, 11, 49}, shared: 3, covAt: -1},
		{name: "shared-kills", nsets: 200, drop: []int{0, 100}, shared: 8, empty: 17, covAt: 120, covTail: true},
	}
}

func seq(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

// buildCompactCase builds the collection of tc (drawing set contents
// from r) and returns it with the nodes that die.
func buildCompactCase(tc compactCase, r *rng.RNG) (*Collection, []graph.NodeID) {
	const sharedPool = 50
	n := tc.nsets + sharedPool
	c := NewCollection(n)
	var nodes []graph.NodeID
	for i := 0; i < tc.nsets; i++ {
		if tc.covAt >= 0 && i == tc.covAt {
			c.NewCoverage()
		}
		nodes = nodes[:0]
		if tc.empty == 0 || i%tc.empty != 0 {
			nodes = append(nodes, graph.NodeID(i))
			for k := r.Intn(6); k > 0; k-- {
				nodes = append(nodes, graph.NodeID(tc.nsets+r.Intn(sharedPool)))
			}
			// Shuffle so the private node is not always first.
			r.Shuffle(len(nodes), func(a, b int) { nodes[a], nodes[b] = nodes[b], nodes[a] })
		}
		c.AddSet(graph.NodeID(i), nodes)
		if c.coverage != nil && !tc.covTail {
			c.coverage.Update()
		}
	}
	if tc.covAt >= 0 && tc.covAt >= tc.nsets {
		c.NewCoverage()
	}
	var dead []graph.NodeID
	for _, i := range tc.drop {
		dead = append(dead, graph.NodeID(i))
	}
	for k := 0; k < tc.shared; k++ {
		dead = append(dead, graph.NodeID(tc.nsets+r.Intn(sharedPool)))
	}
	return c, dead
}

// TestFilterMatchesReference: on every collection shape, Filter must leave
// arena, offsets, roots, Coverage counts and counted prefix, requested
// and version byte-identical to the reference loop, and return the same
// count — and so must a second Filter at an unchanged version.
func TestFilterMatchesReference(t *testing.T) {
	for _, tc := range compactCases() {
		t.Run(tc.name, func(t *testing.T) {
			for trial := 0; trial < 20; trial++ {
				r := rng.New(uint64(1000 + trial))
				c, dead := buildCompactCase(tc, r)
				g := graph.MustFromEdges(c.n, true, nil)
				res := graph.NewResidual(g)
				res.RemoveAll(dead)
				if len(dead) == 0 {
					res.Reset() // move the version so Filter does rescan
				}
				want := cloneCollection(c)
				wantKept := refFilter(want, res)
				got := c.Filter(res)
				where := fmt.Sprintf("trial %d", trial)
				if got != wantKept {
					t.Fatalf("%s: Filter returned %d, reference %d", where, got, wantKept)
				}
				requireSameCollection(t, where, c, want)
				if again := c.Filter(res); again != got {
					t.Fatalf("%s: repeat Filter returned %d, want %d", where, again, got)
				}
				requireSameCollection(t, where+" repeat", c, want)
				if c.coverage != nil {
					// The compacted tracker must keep working: folding in
					// the uncounted tail matches a full recount.
					c.coverage.Update()
					checkCoverageMatchesIndex(t, c, c.coverage, where)
				}
			}
		})
	}
}

// TestInvalidateTouchingMatchesReference is Filter's differential test
// for the topology-delta path, including repeated and duplicate touched
// nodes and the collection's scratch mask being restored between calls.
func TestInvalidateTouchingMatchesReference(t *testing.T) {
	for _, tc := range compactCases() {
		t.Run(tc.name, func(t *testing.T) {
			for trial := 0; trial < 20; trial++ {
				r := rng.New(uint64(2000 + trial))
				c, touched := buildCompactCase(tc, r)
				if len(touched) > 0 {
					touched = append(touched, touched[0]) // duplicates are harmless
				}
				c.version = int64(trial) // must survive untouched
				want := cloneCollection(c)
				wantKept := refInvalidate(want, touched)
				got := c.InvalidateTouching(touched)
				where := fmt.Sprintf("trial %d", trial)
				if got != wantKept {
					t.Fatalf("%s: InvalidateTouching returned %d, reference %d", where, got, wantKept)
				}
				requireSameCollection(t, where, c, want)
				// A second delta on the compacted collection exercises the
				// restored mask: nodes of the first call must not leak.
				more := []graph.NodeID{graph.NodeID(r.Intn(c.n))}
				wantKept = refInvalidate(want, more)
				if got := c.InvalidateTouching(more); got != wantKept {
					t.Fatalf("%s: second InvalidateTouching returned %d, reference %d", where, got, wantKept)
				}
				requireSameCollection(t, where+" second", c, want)
			}
		})
	}
}

// TestFilterMatchesReferenceOnSampledPools runs the differential test on
// real RR pools through several filter/top-up rounds, with the Coverage
// tracker one batch behind so its counted prefix is shorter than Len.
func TestFilterMatchesReferenceOnSampledPools(t *testing.T) {
	g := wcTestGraph(t)
	res := graph.NewResidual(g)
	pool := NewSamplerPool(cascade.IC)
	parent := rng.New(61)
	c := NewCollection(res.FullN())
	pool.AppendParallel(c, res, parent, 1500, 1)
	cov := c.NewCoverage()
	pick := rng.New(62)
	for round := 0; round < 8; round++ {
		pool.AppendParallel(c, res, parent, 300, 1) // uncounted tail
		for k := 0; k < 1+round; k++ {
			res.Remove(res.AliveList()[pick.Intn(res.N())])
		}
		want := cloneCollection(c)
		wantKept := refFilter(want, res)
		if got := c.Filter(res); got != wantKept {
			t.Fatalf("round %d: Filter returned %d, reference %d", round, got, wantKept)
		}
		requireSameCollection(t, fmt.Sprintf("round %d", round), c, want)
		cov.Update()
		touched := []graph.NodeID{graph.NodeID(pick.Intn(g.N())), graph.NodeID(pick.Intn(g.N()))}
		want = cloneCollection(c)
		wantKept = refInvalidate(want, touched)
		if got := c.InvalidateTouching(touched); got != wantKept {
			t.Fatalf("round %d: InvalidateTouching returned %d, reference %d", round, got, wantKept)
		}
		requireSameCollection(t, fmt.Sprintf("round %d invalidate", round), c, want)
		checkCoverageMatchesIndex(t, c, cov, fmt.Sprintf("round %d", round))
	}
}

// TestCompactionWarmNoAllocs: once the collection has been compacted once
// (InvalidateTouching's mask allocated), Filter and InvalidateTouching
// allocate nothing, including when they drop sets.
func TestCompactionWarmNoAllocs(t *testing.T) {
	g := wcTestGraph(t)
	res := graph.NewResidual(g)
	pool := NewSamplerPool(cascade.IC)
	parent := rng.New(71)
	c := NewCollection(res.FullN())
	c.NewCoverage()
	pool.AppendParallel(c, res, parent, 3000, 1)
	snap := cloneCollection(c)
	reload := func() {
		c.arena = append(c.arena[:0], snap.arena...)
		c.offsets = append(c.offsets[:0], snap.offsets...)
		c.roots = append(c.roots[:0], snap.roots...)
		c.requested = snap.requested
		c.version = snap.version
		copy(c.coverage.counts, snap.coverage.counts)
		c.coverage.seen = snap.coverage.seen
	}
	touched := []graph.NodeID{3, 4, 5}
	c.InvalidateTouching(touched) // warm-up: allocates the mask
	reload()
	next := graph.NodeID(1)
	dropped := 0
	filterAllocs := testing.AllocsPerRun(20, func() {
		reload()
		res.Remove(next)
		next++
		dropped += c.Len() - c.Filter(res)
	})
	invalidateAllocs := testing.AllocsPerRun(20, func() {
		reload()
		dropped += c.Len() - c.InvalidateTouching(touched)
	})
	if dropped == 0 {
		t.Fatal("no set was dropped; the allocation check exercised nothing")
	}
	if filterAllocs != 0 || invalidateAllocs != 0 {
		t.Fatalf("warm Filter allocates %.1f, InvalidateTouching %.1f per call, want 0", filterAllocs, invalidateAllocs)
	}
}

// BenchmarkCollectionFilter measures one Filter call on a nethept-s-sized
// RR pool (paper scale, 15,200 nodes, 4,000 IC sets) whose residual has
// lost 1% of its nodes since the sets were drawn; "reference" runs the
// set-by-set loop Filter replaced on the same inputs. The pool is
// reloaded outside the timer before each call.
func BenchmarkCollectionFilter(b *testing.B) {
	g := benchGraph(b, false)
	res := graph.NewResidual(g)
	c := NewCollection(res.FullN())
	c.NewCoverage()
	NewSamplerPool(cascade.IC).AppendParallel(c, res, rng.New(3), 4000, 1)
	snap := cloneCollection(c)
	pick := rng.New(4)
	for k := 0; k < g.N()/100; k++ {
		res.Remove(res.AliveList()[pick.Intn(res.N())])
	}
	for _, variant := range []struct {
		name   string
		filter func(*Collection, *graph.Residual) int
	}{
		{"flat", (*Collection).Filter},
		{"reference", refFilter},
	} {
		b.Run(variant.name, func(b *testing.B) {
			dropped := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c.arena = append(c.arena[:0], snap.arena...)
				c.offsets = append(c.offsets[:0], snap.offsets...)
				c.roots = append(c.roots[:0], snap.roots...)
				c.version = snap.version
				copy(c.coverage.counts, snap.coverage.counts)
				c.coverage.seen = snap.coverage.seen
				b.StartTimer()
				dropped += len(snap.roots) - variant.filter(c, res)
			}
			b.ReportMetric(float64(len(snap.arena)), "entries")
			b.ReportMetric(float64(dropped)/float64(b.N), "dropped/op")
		})
	}
}

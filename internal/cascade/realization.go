// Package cascade implements influence propagation: sampling realizations
// (the paper's possible worlds φ), running forward cascades under a fixed
// realization, observing per-seed activations A(u) on residual graphs, and
// Monte-Carlo spread estimation.
//
// Both the Independent Cascade (IC) model — the paper's model — and the
// Linear Threshold (LT) model are supported. Both are triggering models,
// so realizations, reverse-reachable sets and all concentration bounds
// carry over between them unchanged.
//
// IC worlds are drawn by a bulk coin kernel, rng.AppendCoins, called once
// per node over its out-adjacency. The kernel is bit-identical to flipping
// rng.Coin edge by edge in CSR order, the sampler it replaced: it makes
// the same two Uint32 draws per edge with 0 < p < 1 and none for p = 1,
// in the same order, and compares the same 53-bit uniform against p. It
// only avoids a call and an unpredictable branch per edge. Every
// realization for a given seed, the caller's generator state afterwards,
// and so every seed sequence, profit, golden and checkpoint are unchanged
// (sample_test.go pins the kernel against a per-edge Coin reference).
//
// Observation is O(|activated|): AppendActivated runs the BFS over a
// caller-owned visited mask and resets only the entries it set, so an
// adaptive environment (or a Monte-Carlo loop) allocates the n-entry mask
// once instead of once per call. The BFS order, which the residual's
// alive-list order and so later RR root draws depend on, is unchanged.
package cascade

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/rng"
)

// Model selects the diffusion model.
type Model int

const (
	// IC is the Independent Cascade model: each edge (u,v) is live
	// independently with probability p(u,v).
	IC Model = iota
	// LT is the Linear Threshold model in its triggering form: each node v
	// picks at most one live in-edge, edge (u,v) with probability p(u,v)
	// (requires sum of in-probabilities <= 1, which the weighted-cascade
	// weighting guarantees).
	LT
)

func (m Model) String() string {
	switch m {
	case IC:
		return "IC"
	case LT:
		return "LT"
	default:
		return fmt.Sprintf("model(%d)", int(m))
	}
}

// Realization is one possible world φ: the subgraph of live edges. It is
// stored as a CSR over live out-edges for O(outdeg) forward traversal.
type Realization struct {
	g      *graph.Graph
	model  Model
	outIdx []int32
	outAdj []graph.NodeID
}

// Sample draws a realization of g under the given model using r.
//
// For IC, each edge flips its own coin. For LT, each node selects at most
// one in-neighbor with the edge's probability (and none with the residual
// probability mass).
func Sample(g *graph.Graph, model Model, r *rng.RNG) *Realization {
	switch model {
	case IC:
		return sampleIC(g, r)
	case LT:
		return sampleLT(g, r)
	default:
		panic(fmt.Sprintf("cascade: unknown model %v", model))
	}
}

func sampleIC(g *graph.Graph, r *rng.RNG) *Realization {
	n := g.N()
	rz := &Realization{g: g, model: IC, outIdx: make([]int32, n+1)}
	var live []graph.NodeID
	var flipped int64 // coins flipped so far
	for u := 0; u < n; u++ {
		adj, ps := g.OutNeighbors(graph.NodeID(u))
		if cap(live)-len(live) < len(adj) {
			live = growLive(live, len(adj), flipped, g.M())
		}
		live = r.AppendCoins(live, adj, ps)
		flipped += int64(len(adj))
		rz.outIdx[u+1] = int32(len(live))
	}
	rz.outAdj = live
	return rz
}

// growLive returns live with room for at least need more edges, sized
// from what has survived so far: the m−flipped coins still to flip are
// expected to land at the rate the first flipped did, plus 1/16 slack.
// A first call (nothing flipped yet) reserves a small probe, and every
// regrowth is at least 5/4 of the old capacity, so a sample regrows a few
// times instead of preallocating for a fixed fraction of m.
func growLive(live []graph.NodeID, need int, flipped, m int64) []graph.NodeID {
	want := int64(len(live)+need) + 1024
	if flipped > 0 {
		proj := int64(len(live)) + int64(float64(m-flipped)*float64(len(live))/float64(flipped))
		want = max(want, proj+proj/16, int64(cap(live))*5/4)
	}
	grown := make([]graph.NodeID, len(live), min(want, int64(len(live))+m-flipped))
	copy(grown, live)
	return grown
}

func sampleLT(g *graph.Graph, r *rng.RNG) *Realization {
	n := g.N()
	// Each node picks at most one live in-edge; build the live edge set as
	// (picked-source -> node), then convert to out-CSR.
	pickedFrom := make([]graph.NodeID, n)
	for v := 0; v < n; v++ {
		pickedFrom[v] = -1
		if srcs, p, ok := g.InNeighborsUniform(graph.NodeID(v)); ok {
			// Uniform in-probability: the prefix scan inverts to one
			// division (rng.PrefixPick, shared with the reverse sampler).
			if len(srcs) == 0 {
				continue
			}
			if idx := r.PrefixPick(p, len(srcs)); idx >= 0 {
				pickedFrom[v] = srcs[idx]
			}
			continue
		}
		srcs, ps := g.InNeighbors(graph.NodeID(v))
		x := r.Float64()
		acc := 0.0
		for i, u := range srcs {
			acc += ps[i]
			if x < acc {
				pickedFrom[v] = u
				break
			}
		}
	}
	outDeg := make([]int32, n+1)
	for v := 0; v < n; v++ {
		if u := pickedFrom[v]; u >= 0 {
			outDeg[u+1]++
		}
	}
	rz := &Realization{g: g, model: LT, outIdx: make([]int32, n+1)}
	for u := 0; u < n; u++ {
		rz.outIdx[u+1] = rz.outIdx[u] + outDeg[u+1]
	}
	rz.outAdj = make([]graph.NodeID, rz.outIdx[n])
	cursor := make([]int32, n)
	for v := 0; v < n; v++ {
		if u := pickedFrom[v]; u >= 0 {
			rz.outAdj[rz.outIdx[u]+cursor[u]] = graph.NodeID(v)
			cursor[u]++
		}
	}
	return rz
}

// FromLiveEdges builds a realization from an explicit live-edge list.
// Used by tests and by the exact oracle's world enumeration.
func FromLiveEdges(g *graph.Graph, live []graph.Edge) *Realization {
	n := g.N()
	rz := &Realization{g: g, model: IC, outIdx: make([]int32, n+1)}
	perNode := make([][]graph.NodeID, n)
	for _, e := range live {
		perNode[e.From] = append(perNode[e.From], e.To)
	}
	for u := 0; u < n; u++ {
		rz.outAdj = append(rz.outAdj, perNode[u]...)
		rz.outIdx[u+1] = int32(len(rz.outAdj))
	}
	return rz
}

// Graph returns the underlying graph.
func (rz *Realization) Graph() *graph.Graph { return rz.g }

// Model returns the diffusion model the realization was drawn under.
func (rz *Realization) Model() Model { return rz.model }

// LiveOut returns the live out-neighbors of u under this realization.
// The slice aliases internal storage.
func (rz *Realization) LiveOut(u graph.NodeID) []graph.NodeID {
	return rz.outAdj[rz.outIdx[u]:rz.outIdx[u+1]]
}

package cascade_test

import (
	"testing"

	"repro/internal/adaptive"
	"repro/internal/cascade"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// Sinks keep benchmarked results live.
var (
	sinkRealization *cascade.Realization
	sinkActivated   []graph.NodeID
)

// benchGraph materializes the nethept-s stand-in at paper scale with the
// weighted-cascade weighting.
func benchGraph(b *testing.B) *graph.Graph {
	b.Helper()
	spec, err := gen.Lookup("nethept-s")
	if err != nil {
		b.Fatal(err)
	}
	g, err := gen.Generate(spec.Config(1))
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkSampleIC measures drawing one IC possible world: one coin per
// edge through the bulk kernel, plus the live-edge CSR.
func BenchmarkSampleIC(b *testing.B) {
	g := benchGraph(b)
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkRealization = cascade.Sample(g, cascade.IC, r)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*g.M()), "ns/edge")
}

// BenchmarkEnvironmentObserve measures one adaptive observation: the
// residual-restricted BFS of a seed's cascade and the removal of the
// activated nodes. Each campaign observes observesPerCampaign random
// seeds on a fresh environment over one realization; environment set-up
// is not timed.
func BenchmarkEnvironmentObserve(b *testing.B) {
	const observesPerCampaign = 17
	g := benchGraph(b)
	rz := cascade.Sample(g, cascade.IC, rng.New(1))
	r := rng.New(2)
	var env *adaptive.Environment
	activated := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%observesPerCampaign == 0 {
			b.StopTimer()
			env = adaptive.NewEnvironment(rz)
			b.StartTimer()
		}
		sinkActivated = env.Observe(graph.NodeID(r.Intn(g.N())))
		activated += len(sinkActivated)
	}
	b.ReportMetric(float64(activated)/float64(b.N), "nodes/op")
}

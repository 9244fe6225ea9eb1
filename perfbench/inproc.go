package main

import (
	"time"

	"repro/internal/adaptive"
	"repro/internal/cascade"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sweep"
)

// inproc drives adaptive sessions in this process, the way `repro bench`
// does: gen.Generate and adaptive.Prepare build the instance, and each
// campaign samples its world with cascade.Sample and runs one
// adaptive.Session against it.
type inproc struct {
	cfg  config
	inst *adaptive.Instance
	opts adaptive.RunOptions
}

// setupInproc builds the instance cfg.SetupReps times and keeps the last.
// Each repetition is timed from gen.Generate to the end of
// adaptive.Prepare; setup_s is their median.
func setupInproc(cfg config, r *report, tr *tracer) (*inproc, error) {
	ds, err := gen.Lookup(cfg.Dataset)
	if err != nil {
		return nil, err
	}
	cs, err := sweep.ParseCostSetting(cfg.Cost)
	if err != nil {
		return nil, err
	}
	d := &inproc{cfg: cfg, opts: adaptive.RunOptions{Sampling: adaptive.SamplingOptions{Workers: cfg.Workers}}}
	var setups, gens, preps []float64
	var immTotalRR int64
	for rep := 0; rep < cfg.SetupReps; rep++ {
		d.inst = nil
		settle()
		t0 := time.Now()
		sp := tr.start("gen.Generate")
		g, err := gen.Generate(ds.Config(cfg.Scale))
		tr.finish(sp)
		t1 := time.Now()
		if !r.op(err) {
			return nil, err
		}
		sp = tr.start("adaptive.Prepare")
		inst, immRes, err := adaptive.Prepare(g, cascade.IC, adaptive.Setup{
			K: cfg.K, CostSetting: cs, Seed: instanceSeed, Workers: cfg.Workers,
		})
		tr.finish(sp)
		t2 := time.Now()
		if !r.op(err) {
			return nil, err
		}
		d.inst = inst
		immTotalRR = immRes.TotalRR
		setups = append(setups, t2.Sub(t0).Seconds())
		gens = append(gens, t1.Sub(t0).Seconds())
		preps = append(preps, t2.Sub(t1).Seconds())
	}
	r.set("setup_s", median(setups))
	r.set("gen.generate_s", median(gens))
	r.set("adaptive.prepare_s", median(preps))
	r.set("imm.rr_total", float64(immTotalRR))
	r.detail["setup_s_reps"] = setups
	r.detail["dataset_n"] = d.inst.G.N()
	r.detail["dataset_m"] = d.inst.G.M()
	return d, nil
}

func (d *inproc) instance() *adaptive.Instance { return d.inst }

// pass runs the campaign list: campaign i uses the i-th (world, algorithm)
// split pair of rng.New(seed), exactly the stream discipline of
// adaptive.RunExperiment, so the list's mean profit equals its AvgProfit.
func (d *inproc) pass(seed uint64, n int, budget time.Duration, r *report, tr *tracer) *passStats {
	root := rng.New(seed)
	splits := make([]rng.RNG, 2*n)
	for i := range splits {
		splits[i] = *root.Split()
	}
	return runPass(n, budget, tr, func() *passStats { return &passStats{} }, func(lo, hi int, bs *passStats) {
		for i := lo; i < hi; i++ {
			worldRNG, algoRNG := splits[2*i], splits[2*i+1] // copies: a repeated block starts afresh
			t0 := time.Now()
			res := d.campaign(i, &worldRNG, &algoRNG, r, tr, bs)
			bs.cycle(time.Since(t0))
			bs.add(res)
		}
	})
}

// campaign runs one campaign to completion, timing each step (NextSeed,
// then Environment.Observe and Session.Observe for a proposed seed) and
// the campaign from world sampling to Result. A failed call ends the
// campaign and returns nil.
func (d *inproc) campaign(i int, worldRNG, algoRNG *rng.RNG, r *report, tr *tracer, ps *passStats) *adaptive.RunResult {
	t0 := time.Now()
	root := tr.startCampaign(i)
	defer tr.finish(root)
	sp := tr.start("cascade.Sample")
	rz := cascade.Sample(d.inst.G, d.inst.Model, worldRNG)
	tr.finish(sp)
	sp = tr.start("adaptive.NewEnvironment")
	env := adaptive.NewEnvironment(rz)
	tr.finish(sp)
	sp = tr.start("adaptive.NewSession")
	sess, err := adaptive.NewSession(d.inst, d.cfg.Algo, d.opts, algoRNG)
	tr.finish(sp)
	if !r.op(err) {
		return nil
	}
	for {
		ts := time.Now()
		st := tr.start("step")
		sp = tr.start("adaptive.Session.NextSeed")
		u, stop, err := sess.NextSeed()
		tr.finish(sp)
		if !r.op(err) {
			tr.finish(st)
			return nil
		}
		if !stop {
			sp = tr.start("adaptive.Environment.Observe")
			activated := env.Observe(u)
			tr.finish(sp)
			sp = tr.start("adaptive.Session.Observe")
			err = sess.Observe(activated)
			tr.finish(sp)
		}
		tr.finish(st)
		ps.step.add(time.Since(ts))
		if stop || !r.op(err) {
			break
		}
	}
	sp = tr.start("adaptive.Session.Result")
	res := sess.Result()
	tr.finish(sp)
	ps.campaign.add(time.Since(t0))
	r.check(sess.Err() == nil && sess.Done(), "campaign %d did not finish: %v", i, sess.Err())
	return res
}

// rerun replays campaign 0 of the list untraced and returns its seeds.
func (d *inproc) rerun(seed uint64, r *report) []graph.NodeID {
	root := rng.New(seed)
	worldRNG, algoRNG := root.Split(), root.Split()
	res := d.campaign(0, worldRNG, algoRNG, r, nil, &passStats{})
	if res == nil {
		return nil
	}
	return res.Seeds
}

func (d *inproc) close() {}

// finalChecks has nothing to add in-process: every check is per campaign.
func (d *inproc) finalChecks(uint64, *report, *passStats) {}

// setCounters has nothing to add in-process: the sampler counters all come
// from the campaigns' RunResults.
func (d *inproc) setCounters(*report, *passStats) {}

// setSpans reports the per-layer metrics of an in-process traced pass:
// the time of each layer call the campaigns made.
func (d *inproc) setSpans(r *report, spans map[string]*spanStats, ps *passStats) {
	get := func(name string) *spanStats {
		if s := spans[name]; s != nil {
			return s
		}
		return &spanStats{}
	}
	sample := get("cascade.Sample")
	next := get("adaptive.Session.NextSeed")
	r.set("cascade.sample_s", sample.TotalS)
	r.set("cascade.sample_ms_p50", sample.ms.quantile(0.5))
	r.set("cascade.observe_s", get("adaptive.Environment.Observe").TotalS)
	r.set("adaptive.new_session_s", get("adaptive.NewSession").TotalS)
	r.set("adaptive.next_s", next.TotalS)
	r.set("adaptive.next_ms_p50", next.ms.quantile(0.5))
	r.set("adaptive.next_ms_p99", next.ms.quantile(0.99))
	r.set("adaptive.next_self_s", next.TotalS-float64(ps.samplingNS)/1e9)
	r.set("adaptive.observe_s", get("adaptive.Session.Observe").TotalS)
	r.samples["adaptive.next"] = next.Count
	if d.cfg.Enforce {
		r.check(backed(next.Count, 0.99), "adaptive.next_ms_p99: %d samples do not back p99", next.Count)
	}
}

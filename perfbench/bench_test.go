package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
	"time"

	"repro/internal/adaptive"
)

// tiny shrinks a workload to nethept-s at scale 0.05 with a four-campaign
// list and one set-up, so every workload runs in about a second.
func tiny(t *testing.T, name string) config {
	t.Helper()
	cfg, ok := workloads[name]
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	cfg.Dataset, cfg.Scale = "nethept-s", 0.05
	cfg.Campaigns, cfg.SetupReps = 4, 1
	cfg.Enforce = false // four campaigns back no tail percentile
	return cfg
}

func runTiny(t *testing.T, name string, trace bool) *report {
	t.Helper()
	r, err := run(tiny(t, name), options{workload: name, seed: 7, seconds: 1, trace: trace, workDir: t.TempDir(), commit: "test"})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return r
}

// printed renders the result line of a run the way main does.
func printed(r *report, cfg config, trace bool) resultLine {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	names := make([]string, len(defs))
	for i, d := range defs {
		names[i] = d.name
		if !inScope(d.scope, cfg) {
			r.set(d.name, 0)
		}
	}
	return r.line(names)
}

func TestTinyWorkloadsEmitEveryMetric(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			r := runTiny(t, name, trace)
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			line := printed(r, tiny(t, name), trace)
			if !line.Correct || line.Failed != 0 || line.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d/%d: %v", name, trace, line.Correct, line.Failed, line.Attempted, r.failures)
			}
			// The JSON object keeps one entry per name, so a name printed
			// twice would show as a count mismatch.
			b, err := json.Marshal(line)
			if err != nil {
				t.Fatal(err)
			}
			var back resultLine
			if err := json.Unmarshal(b, &back); err != nil {
				t.Fatal(err)
			}
			if len(back.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics printed, want %d", name, trace, len(back.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := back.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s missing", name, trace, d.name)
				case m.Unit != d.unit:
					t.Errorf("%s trace=%v: %s unit %q, want %q", name, trace, d.name, m.Unit, d.unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace=%v: %s = %v", name, trace, d.name, m.Value)
				}
			}
			if v := r.metrics["ok_frac"].Value; v != 1 {
				t.Errorf("%s trace=%v: ok_frac = %v", name, trace, v)
			}
			pairs := [][2]string{{"campaign_ms_p50", "campaign_ms_p90"}, {"step_ms_p50", "step_ms_p99"}}
			if tiny(t, name).Churn {
				pairs = append(pairs, [2]string{"mutate_ms_p50", "mutate_ms_p90"},
					[2]string{"checkpoint_ms_p50", "checkpoint_ms_p90"}, [2]string{"restore_ms_p50", "restore_ms_p90"})
			}
			if trace && !tiny(t, name).Serve {
				pairs = append(pairs, [2]string{"adaptive.next_ms_p50", "adaptive.next_ms_p99"})
			}
			for _, p := range pairs {
				lo, hi := r.metrics[p[0]].Value, r.metrics[p[1]].Value
				if !(lo > 0 && lo <= hi) {
					t.Errorf("%s trace=%v: %s = %v, %s = %v", name, trace, p[0], lo, p[1], hi)
				}
			}
		}
	}
}

func TestTinyCountersAreDeterministic(t *testing.T) {
	for _, name := range workloadNames() {
		a, b := runTiny(t, name, false), runTiny(t, name, false)
		for _, m := range []string{"ris.rr_drawn", "ris.rr_edge_touches", "profit_mean"} {
			va, vb := a.metrics[m].Value, b.metrics[m].Value
			if va != vb || va == 0 {
				t.Errorf("%s: %s = %v then %v", name, m, va, vb)
			}
		}
	}
}

// The in-process list is adaptive.RunExperiment's realization sequence, so
// its mean profit is RunExperiment's AvgProfit for the same seed and count.
func TestInprocProfitMatchesRunExperiment(t *testing.T) {
	cfg := tiny(t, "bench-dblp")
	r := newReport()
	d, err := setupInproc(cfg, r, nil)
	if err != nil {
		t.Fatal(err)
	}
	const seed = 7
	ps := d.pass(seed, cfg.Campaigns, time.Minute, r, nil)
	rep, err := adaptive.RunExperiment(d.inst, cfg.Algo, cfg.Campaigns, d.opts, seed)
	if err != nil {
		t.Fatal(err)
	}
	if got := ps.profitMean(); got != rep.AvgProfit {
		t.Errorf("profit_mean = %v, RunExperiment AvgProfit = %v", got, rep.AvgProfit)
	}
	if r.failed != 0 {
		t.Errorf("failures: %v", r.failures)
	}
}

// BENCHMARK.json must name exactly the workloads and metrics the program
// prints, with the same units.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := names, workloadNames(); !equalStrings(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, the program has %v", got, want)
	}
	check := func(kind string, listed []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program prints %d", kind, len(listed), len(defs))
			return
		}
		for i, d := range defs {
			if listed[i].Name != d.name || listed[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program prints %s (%s)", kind, i, listed[i].Name, listed[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

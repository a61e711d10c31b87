package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// exactCounters must repeat bit for bit across identical runs: they
// count work, not time, so a change that moves one changed the work.
var exactCounters = []string{
	"emu.insts", "emu.runs", "emu.inst_limit_trips", "emu.watchdog_trips",
	"campaign.mutants", "gadget.scans", "core.passes",
}

// schedulingCounters depend on which worker reaches a block or a page
// first, so identical runs may differ slightly in them (up to 0.2% on
// the wget campaign). They are reported, never compared exactly.
var schedulingCounters = []string{
	"emu.tb.catalog_hit_pct", "emu.tb.translations", "emu.tb.invalidations",
	"emu.tb.chain_hits", "emu.dirty_pages_mean",
}

// trimmed runs one workload at a test-sized scale, traced, and returns
// its per-layer values.
func trimmed(t *testing.T, workload string, sc scale) map[string]float64 {
	t.Helper()
	rc := runConfig{workload: workload, seed: 7, trace: true, workers: 2, scale: sc}
	led := &ledger{}
	values, err := workloads[workload](context.Background(), rc, led, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	if led.failed != 0 || led.attempted == 0 {
		t.Fatalf("%s: %d of %d operations failed: %v", workload, led.failed, led.attempted, led.notes)
	}
	return values
}

func TestCountersRepeatExactly(t *testing.T) {
	if testing.Short() {
		t.Skip("runs trimmed workloads twice")
	}
	cases := []struct {
		workload string
		sc       scale
		moving   []string // exact counters the workload must drive above 0
	}{
		{"campaign-corpus", scale{programs: []string{"wget", "gzip"}, corpusMutants: 12, minRounds: 2},
			[]string{"emu.insts", "emu.runs", "campaign.mutants", "gadget.scans", "core.passes"}},
		{"protect-batch", scale{programs: []string{"wget"}, families: []string{"tiny"}, minRounds: 2},
			[]string{"gadget.scans", "core.passes"}},
	}
	for _, tc := range cases {
		t.Run(tc.workload, func(t *testing.T) {
			a := trimmed(t, tc.workload, tc.sc)
			b := trimmed(t, tc.workload, tc.sc)
			for _, k := range exactCounters {
				if a[k] != b[k] {
					t.Errorf("%s: %v then %v", k, a[k], b[k])
				}
			}
			for _, k := range tc.moving {
				if a[k] == 0 {
					t.Errorf("%s reads 0", k)
				}
			}
			if a["emu.watchdog_trips"] != 0 {
				t.Errorf("%v wall-clock watchdog trips", a["emu.watchdog_trips"])
			}
			for _, k := range schedulingCounters {
				if a[k] != b[k] {
					t.Logf("scheduling-dependent %s: %v then %v", k, a[k], b[k])
				}
			}
		})
	}
}

func TestWarmRoundHitsTheFarmCache(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a trimmed workload")
	}
	v := trimmed(t, "protect-batch", scale{programs: []string{"gzip"}, families: []string{"tiny"}, minRounds: 2})
	if v["farm.scan_hit_pct"] != 100 || v["farm.hint_hit_pct"] != 100 {
		t.Errorf("warm round: scan hits %v%%, hint hits %v%%; want 100%% each",
			v["farm.scan_hit_pct"], v["farm.hint_hit_pct"])
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the names and units the
// benchmark prints in step with the repository's BENCHMARK.json.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(defs) != len(got) {
			t.Fatalf("%s: %d metrics in the benchmark, %d in BENCHMARK.json", kind, len(defs), len(got))
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s %d: benchmark has %s (%s), BENCHMARK.json %s (%s)", kind, i, d.name, d.unit, got[i].Name, got[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the benchmark", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "protect-batch", "--trace", "2"},
		{"--workload", "protect-batch", "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d with %q on stdout; want 2 and nothing", args, code, out.String())
		}
	}
}

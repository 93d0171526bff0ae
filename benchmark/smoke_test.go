package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

// contract mirrors the keys of ../BENCHMARK.json this test reads.
type contract struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload at 1/100 scale with sub-second windows,
// in both modes, and checks the benchmark against its own contract:
// BENCHMARK.json and the program name the same workloads, metrics, units
// and bounds; every metric of the mode is reported once with a finite
// value; and no operation fails.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}

	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q (or their reasons differ)", i, c.Workloads[i].Name, w.name)
		}
	}
	seen := map[string]bool{}
	checkDef := func(kind, name, unit string, d metricDef) {
		if name != d.Name || unit != d.Unit {
			t.Errorf("%s: BENCHMARK.json has %s [%s], the program %s [%s]", kind, name, unit, d.Name, d.Unit)
		}
		if !nameRE.MatchString(d.Name) {
			t.Errorf("%s %q is not a valid metric name", kind, d.Name)
		}
		if seen[d.Name] {
			t.Errorf("metric %q is defined twice", d.Name)
		}
		seen[d.Name] = true
	}
	if len(c.EndToEnd) != len(endToEnd) || len(c.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the program %d+%d", len(c.EndToEnd), len(c.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		checkDef("end_to_end", c.EndToEnd[i].Name, c.EndToEnd[i].Unit, d)
		if c.EndToEnd[i].Bound != d.Bound {
			t.Errorf("%s: bound %g in BENCHMARK.json, %g in the program", d.Name, c.EndToEnd[i].Bound, d.Bound)
		}
	}
	for i, d := range perLayer {
		checkDef("per_layer", c.PerLayer[i].Name, c.PerLayer[i].Unit, d)
	}

	modes := []bool{false, true}
	if testing.Short() {
		modes = modes[:1]
	}
	for _, w := range workloads {
		for _, trace := range modes {
			cfg := config{seed: 3, seconds: 0.9, trace: trace, tmp: t.TempDir(), scale: 0.01, clients: 2}
			res, err := w.run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed: %v", w.name, trace, res.Failed, res.Attempted, res.Errors)
			}
			for _, d := range defsFor(trace) {
				v, ok := res.Values[d.Name]
				if !ok && !trace {
					t.Errorf("%s: end-to-end metric %s not reported", w.name, d.Name)
				}
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s: %s = %v", w.name, d.Name, v)
				}
			}
			for name := range res.Values {
				if !seen[name] {
					t.Errorf("%s trace=%v: reported %s, which BENCHMARK.json does not name", w.name, trace, name)
				}
			}
		}
	}
}

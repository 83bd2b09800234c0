package main

import (
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/sweep"
)

// benchmarkFile mirrors the repository's BENCHMARK.json.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestLedgerMatchesBenchmark checks the three places that name metrics
// agree: BENCHMARK.json, the embedded LEDGER.json the binary reports
// from, and README.md's map.
func TestLedgerMatchesBenchmark(t *testing.T) {
	l, err := loadLedger()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}

	if len(b.Workloads) != len(l.Workloads) || len(b.Workloads) != len(workloads) {
		t.Fatalf("workloads: BENCHMARK.json %d, LEDGER.json %d, code %d", len(b.Workloads), len(l.Workloads), len(workloads))
	}
	var names []string
	for i, w := range b.Workloads {
		if w.Name != l.Workloads[i].Name || w.Why != l.Workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, LEDGER.json %s %q", i, w, l.Workloads[i].Name, l.Workloads[i].Why)
		}
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s has no runner", w.Name)
		}
		names = append(names, w.Name)
	}

	type def struct{ unit, better string }
	want := map[string]map[string]def{"end_to_end": {}, "per_layer": {}}
	for _, m := range b.EndToEnd {
		want["end_to_end"][m.Name] = def{m.Unit, m.Better}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range b.PerLayer {
		want["per_layer"][m.Name] = def{m.Unit, m.Better}
	}
	got := 0
	for _, m := range l.Metrics {
		d, ok := want[m.Kind][m.Name]
		if !ok || d.unit != m.Unit || d.better != m.Better {
			t.Errorf("LEDGER.json %s %s (%s, %s) is not in BENCHMARK.json as such", m.Kind, m.Name, m.Unit, m.Better)
		}
		got++
		if m.Kind == "end_to_end" && !slices.Equal(m.Workloads, names) {
			t.Errorf("end-to-end metric %s is measured on %v, not on every workload", m.Name, m.Workloads)
		}
		for _, w := range m.Workloads {
			if !slices.Contains(names, w) {
				t.Errorf("%s names unknown workload %s", m.Name, w)
			}
		}
		if !strings.Contains(string(readme), "`"+m.Name+"`") {
			t.Errorf("README.md does not map %s", m.Name)
		}
	}
	if got != len(b.EndToEnd)+len(b.PerLayer) {
		t.Errorf("LEDGER.json has %d metrics, BENCHMARK.json %d", got, len(b.EndToEnd)+len(b.PerLayer))
	}
}

// TestSweepDigestStable checks what the sweep-matrix workload relies on:
// a matrix's Result.JSON digest is the same across reruns and worker
// counts.
func TestSweepDigestStable(t *testing.T) {
	m := sweepMatrix(3)
	m.Scenarios = []string{"churn-storm", "fail-sparse"}
	m.Policies = []string{"bf-ob"}
	m.Ticks = 60
	var want string
	for _, workers := range []int{1, 2, 1} {
		m.Workers = workers
		res, err := sweep.Run(m)
		if err != nil {
			t.Fatal(err)
		}
		js, err := res.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if d := digest(js); want == "" {
			want = d
		} else if d != want {
			t.Fatalf("workers %d: digest %s, first run %s", workers, d, want)
		}
	}
}

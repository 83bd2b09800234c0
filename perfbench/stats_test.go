package main

import (
	"testing"

	"repro/internal/model"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: tailPct must sort
	}
	return xs
}

// TestTailPctRule pins the percentile rule: the highest percentile not
// above the one asked for with at least ten samples beyond it, never
// below the median, reported with its sample count.
func TestTailPctRule(t *testing.T) {
	for _, tc := range []struct {
		n     int
		want  float64 // percentile asked for
		pct   float64 // percentile reported
		value float64
	}{
		{n: 2000, want: 99, pct: 99, value: 1980}, // 20 samples beyond
		{n: 1000, want: 99, pct: 99, value: 990},  // exactly 10 beyond
		{n: 500, want: 99, pct: 98, value: 490},   // lowered to keep 10 beyond
		{n: 100, want: 99, pct: 90, value: 90},    // p90 of 100
		{n: 15, want: 99, pct: 50, value: 8},      // never below the median
		{n: 1, want: 99, pct: 50, value: 1},       // a lone sample
		{n: 0, want: 99, pct: 0, value: 0},        // nothing measured
		{n: 4000, want: 99.9, pct: 99.75, value: 3990},
	} {
		got := tailPct(seq(tc.n), tc.want)
		if got.Pct != tc.pct || got.Value != tc.value || got.Samples != tc.n {
			t.Errorf("n=%d want p%v: got %+v, want pct %v value %v samples %d", tc.n, tc.want, got, tc.pct, tc.value, tc.n)
		}
		if tc.n > 0 {
			beyond := 0
			for _, x := range seq(tc.n) {
				if x > got.Value {
					beyond++
				}
			}
			if beyond < minTail && got.Pct > 50 {
				t.Errorf("n=%d: only %d samples beyond p%v", tc.n, beyond, got.Pct)
			}
		}
	}
}

func TestMedianAndGrowth(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("median empty = %v", m)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = 1
		if i >= 90 {
			xs[i] = 3
		}
	}
	if g := growth(xs); g != 3 {
		t.Errorf("growth = %v, want 3", g)
	}
	if g := growth([]float64{1, 2, 3}); g != 1 {
		t.Errorf("growth of a short series = %v, want 1", g)
	}
}

// TestPlacementDigestStable checks the placement digest depends on the
// placement only, not on map insertion order, and sees any change.
func TestPlacementDigestStable(t *testing.T) {
	a, b := model.Placement{}, model.Placement{}
	for i := 0; i < 500; i++ {
		a[model.VMID(i)] = model.PMID(i % 7)
		b[model.VMID(499-i)] = model.PMID((499 - i) % 7)
	}
	if placementDigest(a) != placementDigest(b) {
		t.Fatal("equal placements hash differently")
	}
	b[42] = 3
	if placementDigest(a) == placementDigest(b) {
		t.Fatal("a moved VM does not change the digest")
	}
}

func TestSplitmixSeeds(t *testing.T) {
	seen := map[uint64]bool{}
	for i := uint64(0); i < 8; i++ {
		s := splitmix(7, i)
		if seen[s] {
			t.Fatalf("child seed %d repeats", i)
		}
		seen[s] = true
		if splitmix(7, i) != s {
			t.Fatal("splitmix is not a function of its inputs")
		}
	}
}

func TestParseCPUTicksAndSteal(t *testing.T) {
	before, err := parseCPUTicks("cpu  100 0 50 800 10 0 5 35 7 0")
	if err != nil {
		t.Fatal(err)
	}
	if before.total != 1000 || before.steal != 35 {
		t.Fatalf("parsed %+v, want total 1000 steal 35", before)
	}
	after, err := parseCPUTicks("cpu  190 0 50 800 10 0 5 45 9 0")
	if err != nil {
		t.Fatal(err)
	}
	if f := after.stealFrac(before); f != 0.1 {
		t.Fatalf("steal share %v, want 0.1", f)
	}
	if _, err := parseCPUTicks("cpu0 1 2 3"); err == nil {
		t.Fatal("a short or per-CPU line parsed")
	}
}

// TestCalmOf checks disturbed episodes are left out of the metrics only
// while enough undisturbed ones remain.
func TestCalmOf(t *testing.T) {
	eps := []episode[int]{{rec: 1}, {rec: 2, disturbed: true}, {rec: 3}, {rec: 4, disturbed: true}}
	if got := calmOf(eps, 2); len(got) != 2 || got[0].rec != 1 || got[1].rec != 3 {
		t.Fatalf("calmOf(2) = %+v", got)
	}
	if got := calmOf(eps, 3); len(got) != 4 {
		t.Fatalf("calmOf(3) kept %d episodes, want all 4", len(got))
	}
}

package monitor

import (
	"math"
	"testing"

	"repro/internal/model"
	"repro/internal/rng"
)

func newObs(noise NoiseConfig) *Observer {
	return NewObserver(noise, 10, rng.New(1, 2))
}

func TestObserveVMNoiseless(t *testing.T) {
	o := NewObserver(NoiseConfig{}, 10, nil)
	u := model.Resources{CPUPct: 123, MemMB: 456, BWMbps: 7}
	s := o.ObserveVM(0, 0, u, model.Load{RPS: 10}, 0.2, 0.9, 3)
	if s.Usage != u {
		t.Fatalf("noiseless observation distorted: %v", s.Usage)
	}
	if s.RT != 0.2 || s.SLA != 0.9 || s.QueueLen != 3 {
		t.Fatalf("sample fields wrong: %+v", s)
	}
}

func TestObserveVMNoiseBounded(t *testing.T) {
	o := newObs(NoiseConfig{RelSD: 0.05})
	u := model.Resources{CPUPct: 100, MemMB: 512, BWMbps: 10}
	var sum float64
	n := 2000
	for i := 0; i < n; i++ {
		s := o.ObserveVM(i, 0, u, model.Load{}, 0, 1, 0)
		sum += s.Usage.CPUPct
		if s.Usage.CPUPct < 50 || s.Usage.CPUPct > 200 {
			t.Fatalf("implausible noise: %v", s.Usage.CPUPct)
		}
	}
	mean := sum / float64(n)
	if math.Abs(mean-100) > 2 {
		t.Fatalf("noise biased: mean = %v", mean)
	}
}

func TestSLAClamped(t *testing.T) {
	o := NewObserver(NoiseConfig{}, 10, nil)
	if s := o.ObserveVM(0, 0, model.Resources{}, model.Load{}, 0, 1.7, 0); s.SLA != 1 {
		t.Fatalf("SLA not clamped high: %v", s.SLA)
	}
	if s := o.ObserveVM(1, 0, model.Resources{}, model.Load{}, 0, -0.5, 0); s.SLA != 0 {
		t.Fatalf("SLA not clamped low: %v", s.SLA)
	}
}

func TestWindowAverageAndMax(t *testing.T) {
	o := NewObserver(NoiseConfig{}, 3, nil)
	if _, ok := o.WindowAvgVM(0); ok {
		t.Fatal("empty window reported ok")
	}
	for i, cpu := range []float64{100, 200, 300, 400} {
		o.ObserveVM(i, 0, model.Resources{CPUPct: cpu}, model.Load{}, 0, 1, 0)
	}
	// Window of 3 keeps 200, 300, 400.
	avg, ok := o.WindowAvgVM(0)
	if !ok || math.Abs(avg.CPUPct-300) > 1e-9 {
		t.Fatalf("WindowAvgVM = %v, %v", avg, ok)
	}
	mx, ok := o.WindowMaxVM(0)
	if !ok || mx.CPUPct != 400 {
		t.Fatalf("WindowMaxVM = %v", mx)
	}
	last, ok := o.LastVM(0)
	if !ok || last.Usage.CPUPct != 400 || last.Tick != 3 {
		t.Fatalf("LastVM = %+v", last)
	}
}

func TestWindowMaxEmpty(t *testing.T) {
	o := NewObserver(NoiseConfig{}, 3, nil)
	if _, ok := o.WindowMaxVM(9); ok {
		t.Fatal("empty max reported ok")
	}
	if _, ok := o.LastVM(9); ok {
		t.Fatal("empty last reported ok")
	}
}

func TestObservePMSpikes(t *testing.T) {
	o := newObs(NoiseConfig{RelSD: 0, SpikeProb: 1, SpikeCPUPct: 50})
	u := model.Resources{CPUPct: 100}
	obs := o.ObservePM(0, 0, u)
	if obs.CPUPct <= 100 {
		t.Fatalf("guaranteed spike did not fire: %v", obs.CPUPct)
	}
	if obs.CPUPct > 150 {
		t.Fatalf("spike exceeds configured magnitude: %v", obs.CPUPct)
	}
	avg, ok := o.WindowAvgPM(0)
	if !ok || avg.CPUPct <= 100 {
		t.Fatalf("PM window avg = %v", avg)
	}
}

func TestObservePMNoSpike(t *testing.T) {
	o := newObs(NoiseConfig{RelSD: 0, SpikeProb: 0})
	obs := o.ObservePM(0, 0, model.Resources{CPUPct: 100})
	if obs.CPUPct != 100 {
		t.Fatalf("spike fired at probability 0: %v", obs.CPUPct)
	}
	if _, ok := o.WindowAvgPM(42); ok {
		t.Fatal("ghost PM window reported ok")
	}
}

func TestWindowDefaulting(t *testing.T) {
	o := NewObserver(NoiseConfig{}, 0, nil)
	if o.Window() != 10 {
		t.Fatalf("default window = %d, want 10", o.Window())
	}
}

func TestEWMA(t *testing.T) {
	if _, err := NewEWMA(0); err == nil {
		t.Fatal("accepted alpha 0")
	}
	if _, err := NewEWMA(1.5); err == nil {
		t.Fatal("accepted alpha > 1")
	}
	e, err := NewEWMA(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if e.Value() != 0 {
		t.Fatal("initial value not 0")
	}
	if got := e.Add(10); got != 10 {
		t.Fatalf("first Add = %v", got)
	}
	if got := e.Add(20); math.Abs(got-15) > 1e-12 {
		t.Fatalf("second Add = %v", got)
	}
	if got := e.Add(15); math.Abs(got-15) > 1e-12 {
		t.Fatalf("third Add = %v", got)
	}
}

func TestEWMAConvergesToConstant(t *testing.T) {
	e, _ := NewEWMA(0.3)
	for i := 0; i < 100; i++ {
		e.Add(42)
	}
	if math.Abs(e.Value()-42) > 1e-9 {
		t.Fatalf("EWMA did not converge: %v", e.Value())
	}
}

func TestObserverDeterministicWithSameSeed(t *testing.T) {
	a := NewObserver(DefaultNoise, 10, rng.New(5, 5))
	b := NewObserver(DefaultNoise, 10, rng.New(5, 5))
	u := model.Resources{CPUPct: 100, MemMB: 512, BWMbps: 10}
	for i := 0; i < 50; i++ {
		sa := a.ObserveVM(i, 0, u, model.Load{}, 0.1, 1, 0)
		sb := b.ObserveVM(i, 0, u, model.Load{}, 0.1, 1, 0)
		if sa.Usage != sb.Usage {
			t.Fatal("observers with same seed diverged")
		}
	}
}

// legacyNoisy is the single-pass distortion the draw/apply split replaced:
// one LogNormal draw per noisy, non-zero field.
func legacyNoisy(s *rng.Stream, v, sd float64) float64 {
	if s == nil || sd <= 0 || v == 0 {
		return v
	}
	return v * s.LogNormal(-sd*sd/2, sd)
}

func legacyResources(s *rng.Stream, n NoiseConfig, r model.Resources) model.Resources {
	return model.Resources{
		CPUPct: legacyNoisy(s, r.CPUPct, n.RelSD),
		MemMB:  legacyNoisy(s, r.MemMB, n.RelSD*0.3),
		BWMbps: legacyNoisy(s, r.BWMbps, n.RelSD),
	}
}

// TestDrawApplyMatchesObserve pins the two-halves contract: deviates
// drawn in sequence and applied later, in any order, give the samples of
// ObserveVM/ObservePM calls made in the draw order, and both match the
// single-pass legacy formula bit for bit. Zero fields and a nil stream
// draw nothing, so the stream stays in step across them.
func TestDrawApplyMatchesObserve(t *testing.T) {
	usages := []model.Resources{
		{CPUPct: 123.4, MemMB: 512, BWMbps: 7.5},
		{CPUPct: 0, MemMB: 256, BWMbps: 0},
		{},
		{CPUPct: 80, MemMB: 0, BWMbps: 3},
	}
	noise := NoiseConfig{RelSD: 0.05, SpikeProb: 0.4, SpikeCPUPct: 50}
	for _, seeded := range []bool{true, false} {
		stream := func() *rng.Stream {
			if !seeded {
				return nil
			}
			return rng.New(7, 9)
		}
		whole := NewObserver(noise, 3, stream())
		split := NewObserver(noise, 3, stream())
		ref := stream()
		for tick := 0; tick < 8; tick++ {
			for j, u := range usages {
				pm := model.PMID(j)
				want := legacyResources(ref, noise, u)
				if ref != nil && ref.Bool(noise.SpikeProb) {
					want.CPUPct += ref.Uniform(0.3, 1.0) * noise.SpikeCPUPct
				}
				got := whole.ObservePM(tick, pm, u)
				d := split.DrawPM(u)
				if s := split.ApplyPM(split.EnsurePM(pm), d, u); s != got || got != want {
					t.Fatalf("seeded=%v tick %d PM %d: split %+v, ObservePM %+v, legacy %+v", seeded, tick, j, s, got, want)
				}
			}
			devs := make([]Deviates, len(usages))
			wants := make([]Sample, len(usages))
			for k, u := range usages {
				devs[k] = split.DrawVM(u)
				wants[k] = whole.ObserveVM(tick, model.VMID(k), u, model.Load{RPS: float64(k)}, 0.1, 1.2, 3)
				if legacy := legacyResources(ref, noise, u); legacy != wants[k].Usage {
					t.Fatalf("seeded=%v tick %d VM %d: ObserveVM %+v, legacy %+v", seeded, tick, k, wants[k].Usage, legacy)
				}
			}
			for k := len(usages) - 1; k >= 0; k-- { // apply out of draw order
				s := split.ApplyVM(split.EnsureVM(model.VMID(k)), devs[k], Sample{
					Tick: tick, Usage: usages[k], Load: model.Load{RPS: float64(k)}, RT: 0.1, SLA: 1.2, QueueLen: 3,
				})
				if s != wants[k] {
					t.Fatalf("seeded=%v tick %d VM %d: split %+v, ObserveVM %+v", seeded, tick, k, s, wants[k])
				}
			}
		}
		for k := range usages {
			a, _ := whole.WindowAvgVM(model.VMID(k))
			b, _ := split.WindowAvgVM(model.VMID(k))
			pa, _ := whole.WindowAvgPM(model.PMID(k))
			pb, _ := split.WindowAvgPM(model.PMID(k))
			if a != b || pa != pb {
				t.Fatalf("seeded=%v windows of %d differ: VM %+v vs %+v, PM %+v vs %+v", seeded, k, a, b, pa, pb)
			}
		}
	}
}

// TestForgetVMReusesSlot: a forgotten VM's window is gone, and the next
// VM reuses its storage starting from an empty window.
func TestForgetVMReusesSlot(t *testing.T) {
	o := NewObserver(NoiseConfig{}, 3, nil)
	for tick := 0; tick < 5; tick++ {
		o.ObserveVM(tick, 1, model.Resources{CPUPct: 10}, model.Load{}, 0, 1, 0)
	}
	s := o.EnsureVM(1)
	o.ForgetVM(1)
	if _, ok := o.LastVM(1); ok {
		t.Fatal("forgotten VM still has a window")
	}
	if got := o.EnsureVM(2); got != s {
		t.Fatalf("new VM got slot %d, want the freed slot %d", got, s)
	}
	if _, ok := o.WindowAvgVM(2); ok {
		t.Fatal("reused slot carried its previous tenant's samples")
	}
	o.ObserveVM(5, 2, model.Resources{CPUPct: 40}, model.Load{}, 0, 1, 0)
	if avg, ok := o.WindowAvgVM(2); !ok || avg.CPUPct != 40 {
		t.Fatalf("reused slot window avg = %+v, %v", avg, ok)
	}
}

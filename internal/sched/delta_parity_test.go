package sched_test

// Delta-round parity: with Delta enabled at epsilon 0, the Round reuses a
// memoized row only when the VM's entire fill signature is bit-identical,
// so every placement must equal the full-recompute schedule — on fresh
// state, on reused scheduler instances (where reuse actually kicks in), in
// parallel mode, and across churned fleets where VMs leave, arrive and
// shift identity-to-index mappings.

import (
	"testing"

	"repro/internal/model"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/sweep"
)

// churnedProblem derives a successor-round problem from p: some VMs gone,
// some brand-new, some with perturbed load and placement — the shape the
// dynamic workload produces, with every surviving VM's index shifted.
func churnedProblem(p *sched.Problem) *sched.Problem {
	out := &sched.Problem{Hosts: p.Hosts, Tick: p.Tick + 1}
	var maxID model.VMID
	for i := range p.VMs {
		if p.VMs[i].Spec.ID > maxID {
			maxID = p.VMs[i].Spec.ID
		}
	}
	// Drop the first few VMs (departures shift all later indices).
	drop := 3
	if drop > len(p.VMs)/2 {
		drop = len(p.VMs) / 2
	}
	for i := drop; i < len(p.VMs); i++ {
		vm := p.VMs[i] // copy
		if i%3 == 0 {
			// Perturbed load: deep-copy the vector so the original problem
			// stays untouched, then rescale and recompute the total.
			lv := make(model.LoadVector, len(vm.Load))
			copy(lv, vm.Load)
			for k := range lv {
				lv[k].RPS *= 1.17
			}
			vm.Load = lv
			vm.Total = lv.Total()
			vm.QueueLen += 5
		}
		if i%5 == 0 {
			// Moved elsewhere since last round.
			vm.Current = p.Hosts[i%len(p.Hosts)].Spec.ID
			vm.CurrentDC = p.Hosts[i%len(p.Hosts)].Spec.DC
		}
		out.VMs = append(out.VMs, vm)
	}
	// Arrivals: new identities, never seen by any memo.
	for n := 0; n < 4 && n < len(p.VMs); n++ {
		vm := p.VMs[n]
		vm.Spec.ID = maxID + 1 + model.VMID(n)
		vm.Current = model.NoPM
		vm.CurrentDC = -1
		vm.HasObserved = false
		out.VMs = append(out.VMs, vm)
	}
	return out
}

// TestDeltaRoundPlacementParity proves Delta with epsilon 0 is
// placement-identical to full rounds on every preset: fresh, steady-state
// reused (bit-exact reuse of every row), parallel, and churned.
func TestDeltaRoundPlacementParity(t *testing.T) {
	bundle, err := sweep.TrainedBundle(paritySeed)
	if err != nil {
		t.Fatal(err)
	}
	ests := []sched.Estimator{sched.NewObserved(), sched.NewML(bundle)}
	for _, name := range scenario.Names() {
		p1 := presetProblem(t, name, paritySeed)
		p2 := churnedProblem(p1)
		cost := parityCost(t, name, paritySeed)
		for _, est := range ests {
			fresh := sched.NewBestFit(cost, est)
			want1, err := fresh.Schedule(p1)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, est.Name(), err)
			}
			want2, err := sched.NewBestFit(cost, est).Schedule(p2)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, est.Name(), err)
			}

			delta := sched.NewBestFit(cost, est)
			delta.Delta = true
			got, err := delta.Schedule(p1)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, est.Name(), err)
			}
			if !got.Equal(want1) {
				t.Fatalf("%s/%s: delta fresh round diverged", name, est.Name())
			}
			if st := delta.LastRoundStats(); st.RowsRecomputed != len(p1.VMs) || st.RowsReused != 0 {
				t.Fatalf("%s/%s: fresh delta stats = %+v", name, est.Name(), st)
			}

			// Steady fleet: the identical problem must reuse every row and
			// still emit the identical placement.
			got, err = delta.Schedule(p1)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, est.Name(), err)
			}
			if !got.Equal(want1) {
				t.Fatalf("%s/%s: delta steady round diverged", name, est.Name())
			}
			if st := delta.LastRoundStats(); st.RowsReused != len(p1.VMs) || st.RowsRecomputed != 0 {
				t.Fatalf("%s/%s: steady delta stats = %+v", name, est.Name(), st)
			}

			// Churned fleet: departures, arrivals and moved/perturbed VMs.
			// Only the changed rows may recompute, and the placement must
			// match a from-scratch schedule of the same problem.
			got, err = delta.Schedule(p2)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, est.Name(), err)
			}
			if !got.Equal(want2) {
				t.Fatalf("%s/%s: delta churned round diverged", name, est.Name())
			}
			// On tiny presets the churn touches every VM; only fleets with
			// enough untouched survivors must show partial reuse.
			if st := delta.LastRoundStats(); len(p1.VMs) >= 8 &&
				(st.RowsReused == 0 || st.RowsRecomputed == 0 || st.RowsRecomputed == len(p2.VMs)) {
				t.Fatalf("%s/%s: churned delta counters implausible: %+v", name, est.Name(), st)
			}

			// Parallel delta: same answers at any worker count.
			pd := sched.NewBestFit(cost, est)
			pd.Delta = true
			pd.Parallel = true
			pd.Workers = 3
			for pass, tc := range []struct {
				p    *sched.Problem
				want model.Placement
			}{{p1, want1}, {p1, want1}, {p2, want2}} {
				got, err := pd.Schedule(tc.p)
				if err != nil {
					t.Fatalf("%s/%s: %v", name, est.Name(), err)
				}
				if !got.Equal(tc.want) {
					t.Fatalf("%s/%s pass %d: parallel delta diverged", name, est.Name(), pass)
				}
			}
		}
	}
}

// failCycleProblems derives the three successor problems a host fault
// cycle produces from a mid-run problem: the crash round (victim host
// gone, its guests homeless), the re-home round (victims current on a
// survivor), and the recovery round (victim host back as a candidate,
// same order as the original). The memoized rows are per-DC quantities
// and the per-host profit assembly happens outside the memo, so shrinking
// a multi-host DC may legally keep rows — but the victims' signatures
// change (Current flips) and the placements must match a full recompute
// at every stage regardless.
func failCycleProblems(p *sched.Problem) (failed, rehomed, recovered *sched.Problem) {
	victim := p.VMs[0].Current
	var hosts []sched.HostInfo
	for _, h := range p.Hosts {
		if h.Spec.ID != victim {
			hosts = append(hosts, h)
		}
	}
	survivor := hosts[0].Spec
	stage := func(tick int, hs []sched.HostInfo, cur model.PMID, curDC model.DCID) *sched.Problem {
		out := &sched.Problem{Hosts: hs, Tick: tick}
		for _, vm := range p.VMs {
			if vm.Current == victim {
				vm.Current = cur
				vm.CurrentDC = curDC
			}
			out.VMs = append(out.VMs, vm)
		}
		return out
	}
	failed = stage(p.Tick+1, hosts, model.NoPM, -1)
	rehomed = stage(p.Tick+2, hosts, survivor.ID, survivor.DC)
	recovered = stage(p.Tick+3, p.Hosts, survivor.ID, survivor.DC)
	return failed, rehomed, recovered
}

// TestDeltaParityThroughFaultCycle proves Delta at epsilon 0 stays
// placement-identical to full recomputation through a crash → re-home →
// recover cycle on every preset, with one scheduler instance carrying its
// memo across the shrinking and re-growing candidate set.
func TestDeltaParityThroughFaultCycle(t *testing.T) {
	bundle, err := sweep.TrainedBundle(paritySeed)
	if err != nil {
		t.Fatal(err)
	}
	ests := []sched.Estimator{sched.NewObserved(), sched.NewML(bundle)}
	for _, name := range scenario.Names() {
		p := presetProblem(t, name, paritySeed)
		if p.VMs[0].Current == model.NoPM || len(p.Hosts) < 2 {
			t.Fatalf("%s: warm-up problem has no failable host", name)
		}
		pFail, pRehome, pRecover := failCycleProblems(p)
		cost := parityCost(t, name, paritySeed)
		for _, est := range ests {
			delta := sched.NewBestFit(cost, est)
			delta.Delta = true
			for stage, sp := range []*sched.Problem{p, pFail, pRehome, pRecover} {
				want, err := sched.NewBestFit(cost, est).Schedule(sp)
				if err != nil {
					t.Fatalf("%s/%s stage %d: %v", name, est.Name(), stage, err)
				}
				got, err := delta.Schedule(sp)
				if err != nil {
					t.Fatalf("%s/%s stage %d: %v", name, est.Name(), stage, err)
				}
				if !got.Equal(want) {
					t.Fatalf("%s/%s stage %d: delta diverged from full recompute", name, est.Name(), stage)
				}
				st := delta.LastRoundStats()
				switch stage {
				case 0: // cold memo: everything computes
					if st.RowsReused != 0 {
						t.Fatalf("%s/%s cold round reused %d rows", name, est.Name(), st.RowsReused)
					}
				case 1, 2: // evicted then re-homed: every victim's signature
					// (its Current host) changed, so those rows must recompute.
					if st.RowsRecomputed == 0 {
						t.Fatalf("%s/%s stage %d: moved VMs never recomputed: %+v",
							name, est.Name(), stage, st)
					}
				}
			}
			// A repeat of the recovered problem is a steady fleet again:
			// reuse must come back in full.
			got, err := delta.Schedule(pRecover)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, est.Name(), err)
			}
			want, err := sched.NewBestFit(cost, est).Schedule(pRecover)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, est.Name(), err)
			}
			if !got.Equal(want) {
				t.Fatalf("%s/%s: steady post-recovery round diverged", name, est.Name())
			}
			if st := delta.LastRoundStats(); st.RowsReused != len(pRecover.VMs) {
				t.Fatalf("%s/%s: post-recovery reuse %d of %d rows",
					name, est.Name(), st.RowsReused, len(pRecover.VMs))
			}
		}
	}
}

// TestDeltaEpsilonToleratesDrift checks the epsilon knob: with a loose
// tolerance, a slightly drifted fleet reuses rows (that is the point of
// the knob), while epsilon 0 recomputes the drifted ones.
func TestDeltaEpsilonToleratesDrift(t *testing.T) {
	p1 := presetProblem(t, scenario.Names()[0], paritySeed)
	drift := &sched.Problem{Hosts: p1.Hosts, Tick: p1.Tick + 1}
	for i := range p1.VMs {
		vm := p1.VMs[i]
		lv := make(model.LoadVector, len(vm.Load))
		copy(lv, vm.Load)
		for k := range lv {
			lv[k].RPS *= 1.001 // 0.1% drift, inside a 1% epsilon
		}
		vm.Load = lv
		vm.Total = lv.Total()
		drift.VMs = append(drift.VMs, vm)
	}
	cost := parityCost(t, scenario.Names()[0], paritySeed)
	est := sched.NewObserved()

	loose := sched.NewBestFit(cost, est)
	loose.Delta = true
	loose.DeltaEpsilon = 0.01
	for _, p := range []*sched.Problem{p1, drift} {
		if _, err := loose.Schedule(p); err != nil {
			t.Fatal(err)
		}
	}
	if st := loose.LastRoundStats(); st.RowsReused != len(p1.VMs) {
		t.Fatalf("loose epsilon reused %d of %d rows", st.RowsReused, len(p1.VMs))
	}

	strict := sched.NewBestFit(cost, est)
	strict.Delta = true
	for _, p := range []*sched.Problem{p1, drift} {
		if _, err := strict.Schedule(p); err != nil {
			t.Fatal(err)
		}
	}
	if st := strict.LastRoundStats(); st.RowsRecomputed != len(p1.VMs) {
		t.Fatalf("strict epsilon recomputed %d of %d rows", st.RowsRecomputed, len(p1.VMs))
	}
}

// TestDeltaModeSwitchDropsMemo pins SetDelta's invalidation rule: toggling
// the mode or changing the epsilon must forget every memoized row.
func TestDeltaModeSwitchDropsMemo(t *testing.T) {
	p := presetProblem(t, scenario.Names()[0], paritySeed)
	cost := parityCost(t, scenario.Names()[0], paritySeed)
	bf := sched.NewBestFit(cost, sched.NewObserved())
	bf.Delta = true
	for pass := 0; pass < 2; pass++ {
		if _, err := bf.Schedule(p); err != nil {
			t.Fatal(err)
		}
	}
	if st := bf.LastRoundStats(); st.RowsReused != len(p.VMs) {
		t.Fatalf("warm memo reused %d rows", st.RowsReused)
	}
	bf.DeltaEpsilon = 0.5 // knob change: memo must drop
	if _, err := bf.Schedule(p); err != nil {
		t.Fatal(err)
	}
	if st := bf.LastRoundStats(); st.RowsRecomputed != len(p.VMs) {
		t.Fatalf("epsilon change kept %d reused rows", st.RowsReused)
	}
}

package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/predict"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/sweep"
)

// Hierarchy measures the paper's structural contribution directly: the
// two-layer decomposition ("each DC only provides to the global scheduler
// a set of available physical machines and a set of VM's that may benefit
// if scheduled somewhere else") against a flat global Best-Fit that
// considers every VM on every host, at growing fleet sizes. The narrow
// interface should cut decision latency while keeping outcome quality.
func Hierarchy(seed uint64) (*Result, error) {
	bundle, err := sweep.TrainedBundle(seed)
	if err != nil {
		return nil, err
	}
	// The ladder tops out well past the old 48-VM ceiling: since the flat
	// ML inference stack (PR 4) a 48-VM flat round is sub-millisecond and
	// the decomposition's fixed overheads (sub-problem assembly, per-DC
	// fan-out) drown the signal there. The structural advantage is a
	// scaling claim, so it is asserted at the largest size.
	sizes := []struct{ vms, pmsPerDC int }{
		{8, 2}, {16, 4}, {48, 12}, {96, 24}, {192, 48},
	}
	res := &Result{Name: "Hierarchy", Metrics: map[string]float64{}}
	t := report.Table{
		Caption: "Two-layer vs flat scheduling (4 DCs, 6 h managed run)",
		Headers: []string{"VMs", "hosts", "flat ms/round", "hier ms/round", "flat SLA", "hier SLA", "flat W", "hier W"},
	}
	for _, size := range sizes {
		flat, hier, err := runHierarchyPair(seed, size.vms, size.pmsPerDC, bundle)
		if err != nil {
			return nil, fmt.Errorf("hierarchy %dx%d: %w", size.vms, size.pmsPerDC, err)
		}
		hosts := size.pmsPerDC * 4
		t.AddRow(
			fmt.Sprintf("%d", size.vms),
			fmt.Sprintf("%d", hosts),
			fmt.Sprintf("%.3f", flat.msPerRound),
			fmt.Sprintf("%.3f", hier.msPerRound),
			fmt.Sprintf("%.4f", flat.avgSLA),
			fmt.Sprintf("%.4f", hier.avgSLA),
			fmt.Sprintf("%.0f", flat.avgWatts),
			fmt.Sprintf("%.0f", hier.avgWatts),
		)
		key := fmt.Sprintf("%d", size.vms)
		res.Metrics["flatMs:"+key] = flat.msPerRound
		res.Metrics["hierMs:"+key] = hier.msPerRound
		res.Metrics["flatSLA:"+key] = flat.avgSLA
		res.Metrics["hierSLA:"+key] = hier.avgSLA
	}
	res.Tables = append(res.Tables, t)
	res.Notes = append(res.Notes,
		"the two-layer scheduler solves per-DC problems in parallel and exports only struggling VMs plus one candidate host per DC, so its global round stays small while the flat round grows as VMs x hosts")
	return res, nil
}

type hierarchyRun struct {
	mgr        *core.Manager
	avgSLA     float64
	avgWatts   float64
	msPerRound float64
}

// runHierarchyPair runs the flat and the two-layer scheduler on twin
// fleets in lockstep, one tick each in turn, so a stall of the host lands
// on both managers' round timers rather than on one run alone.
func runHierarchyPair(seed uint64, vms, pmsPerDC int, bundle *predict.Bundle) (flat, hier *hierarchyRun, err error) {
	runs := make([]*hierarchyRun, 2)
	for i := range runs {
		spec := scenario.MustPreset(scenario.Hierarchy, seed)
		spec.VMs = vms
		spec.PMsPerDC = pmsPerDC
		sc, err := scenario.Build(spec)
		if err != nil {
			return nil, nil, err
		}
		est := sched.NewML(bundle)
		var s sched.Scheduler = sched.NewBestFit(sweep.CostModel(sc), est)
		if i == 1 {
			s = core.NewHierarchical(sc.Inventory, sweep.CostModel(sc), est)
		}
		mgr, err := newManager(sc, s)
		if err != nil {
			return nil, nil, err
		}
		if err := sc.World.PlaceInitial(sc.HomePlacement()); err != nil {
			return nil, nil, err
		}
		runs[i] = &hierarchyRun{mgr: mgr}
	}
	const ticks = 360 // 6 hours
	for t := 0; t < ticks; t++ {
		for _, r := range runs {
			st, err := r.mgr.Step()
			if err != nil {
				return nil, nil, err
			}
			r.avgSLA += st.AvgSLA // sums until the loop ends
			r.avgWatts += st.FacilityWatts
		}
	}
	for _, r := range runs {
		r.avgSLA /= ticks
		r.avgWatts /= ticks
		if n := r.mgr.Rounds(); n > 0 {
			r.msPerRound = float64(r.mgr.RoundTime().Nanoseconds()) / 1e6 / float64(n)
		}
	}
	return runs[0], runs[1], nil
}

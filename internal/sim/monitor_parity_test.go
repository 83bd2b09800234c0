package sim_test

// Monitor parity: Engine.Step observes in two halves, the deviate draws
// serially in the money loop and the RNG-free applies on the tick pool
// into slot-indexed windows. Replaying the engine's truth through a
// serial ObserveVM/ObservePM oracle seeded like the engine must rebuild
// every window byte for byte at any worker count, through admissions,
// retirements with slot reuse, crashes and repairs.

import (
	"fmt"
	"testing"

	"repro/internal/model"
	"repro/internal/monitor"
	"repro/internal/sim"
)

func TestMonitorWindowsMatchSerialOracle(t *testing.T) {
	withProcs(t, 4)
	for _, tc := range []struct {
		name  string
		fleet shardFleet
	}{
		{"faults", faultFleet},
		{"churn", churnFleet},
		{"overlay", overlayFleet},
	} {
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				e, between := tc.fleet(t, workers)
				oracle := e.ObserverOracle()
				live := map[model.VMID]bool{}
				retired := map[model.VMID]bool{}
				for tick := 0; tick < 24; tick++ {
					between(tick)
					for id := range live {
						if _, ok := e.VMIndex(id); !ok {
							oracle.ForgetVM(id)
							delete(live, id)
							retired[id] = true
						}
					}
					e.Step()
					observeSerially(e, oracle, tick, live)
					compareWindows(t, tick, e, oracle, live, retired)
				}
				if len(retired) == 0 && tc.name != "faults" {
					t.Fatal("fleet retired no VM: slot reuse went untested")
				}
			})
		}
	}
}

// observeSerially feeds the last tick's truth to the oracle in the
// engine's draw order: powered PMs in inventory order, then active VMs in
// slot order.
func observeSerially(e *sim.Engine, oracle *monitor.Observer, tick int, live map[model.VMID]bool) {
	for j := 0; j < e.NumPMs(); j++ {
		if pm, ok := e.PMTruthByIndex(j); ok && pm.On {
			oracle.ObservePM(tick, e.PMSpecAt(j).ID, pm.Usage)
		}
	}
	for i := 0; i < e.NumVMs(); i++ {
		v, ok := e.VMTruthByIndex(i)
		if !ok {
			continue
		}
		id := e.VMSpecAt(i).ID
		oracle.ObserveVM(tick, id, v.Used, v.Total, v.RTProcess, v.SLA, v.QueueLen)
		live[id] = true
	}
}

// compareWindows checks every reader of every live VM, retired VM and PM
// against the oracle. %v prints the shortest decimal that round-trips a
// float64, so equal strings mean equal bits (up to NaN payloads).
func compareWindows(t *testing.T, tick int, e *sim.Engine, oracle *monitor.Observer, live, retired map[model.VMID]bool) {
	t.Helper()
	got := e.Observer()
	check := func(what string, g, w string) {
		t.Helper()
		if g != w {
			t.Fatalf("tick %d %s: engine %s, oracle %s", tick, what, g, w)
		}
	}
	vmReaders := func(o *monitor.Observer, id model.VMID) string {
		avg, okA := o.WindowAvgVM(id)
		mx, okM := o.WindowMaxVM(id)
		load, okL := o.WindowAvgLoad(id)
		last, okS := o.LastVM(id)
		return fmt.Sprintf("avg %+v %v max %+v %v load %+v %v last %+v %v", avg, okA, mx, okM, load, okL, last, okS)
	}
	for id := range live {
		check(fmt.Sprintf("VM %v", id), vmReaders(got, id), vmReaders(oracle, id))
	}
	for id := range retired {
		if _, ok := got.LastVM(id); ok {
			t.Fatalf("tick %d: retired VM %v still has a window", tick, id)
		}
		check(fmt.Sprintf("retired VM %v", id), vmReaders(got, id), vmReaders(oracle, id))
	}
	pmReaders := func(o *monitor.Observer, id model.PMID) string {
		avg, okA := o.WindowAvgPM(id)
		last, okL := o.LastPM(id)
		return fmt.Sprintf("avg %+v %v last %+v %v", avg, okA, last, okL)
	}
	for j := 0; j < e.NumPMs(); j++ {
		id := e.PMSpecAt(j).ID
		check(fmt.Sprintf("PM %v", id), pmReaders(got, id), pmReaders(oracle, id))
	}
}

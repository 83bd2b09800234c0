package repro

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/network"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/sweep"
)

// TestScheduleSteadyStateAllocs enforces the allocation contract of the
// scheduling hot path: once warmed, a Best-Fit round through ScheduleInto
// allocates nothing — the only allocation Schedule itself performs is the
// returned placement map.
func TestScheduleSteadyStateAllocs(t *testing.T) {
	bundle, err := sweep.TrainedBundle(benchSeed)
	if err != nil {
		t.Fatal(err)
	}
	cost := sched.NewCostModel(network.PaperTopology(), power.Atom{}, 1.0/6)
	for _, tc := range []struct {
		name string
		est  sched.Estimator
	}{
		{"observed", sched.NewObserved()},
		{"overbooked", sched.NewOverbooked()},
		{"ml", sched.NewML(bundle)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			problem := syntheticProblem(24, 16)
			bf := sched.NewBestFit(cost, tc.est)
			placement := make(model.Placement, len(problem.VMs))
			// Warm the reusable round, scratch and map storage.
			for i := 0; i < 2; i++ {
				clear(placement)
				if err := bf.ScheduleInto(problem, placement); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(5, func() {
				clear(placement)
				if err := bf.ScheduleInto(problem, placement); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("steady-state ScheduleInto allocates %.1f objects per round, want 0", allocs)
			}
			if len(placement) != len(problem.VMs) {
				t.Fatalf("placement incomplete: %d/%d", len(placement), len(problem.VMs))
			}
		})
	}
}

// TestScheduleNoLateAllocs runs a few thousand warm BF+ML rounds and
// counts every object the program allocates, where AllocsPerRun would
// truncate a rare one to zero. The round resolves its estimator, power
// curve and regressor views on every Reset; done with interface
// assertions, the runtime would fill their caches on some random later
// round, with an allocation (the 2-8 B/op BenchmarkChurn/Round read on
// some runs).
func TestScheduleNoLateAllocs(t *testing.T) {
	bundle, err := sweep.TrainedBundle(benchSeed)
	if err != nil {
		t.Fatal(err)
	}
	cost := sched.NewCostModel(network.PaperTopology(), power.Atom{}, 1.0/6)
	problem := syntheticProblem(12, 8)
	bf := sched.NewBestFit(cost, sched.NewML(bundle))
	placement := make(model.Placement, len(problem.VMs))
	round := func() {
		clear(placement)
		if err := bf.ScheduleInto(problem, placement); err != nil {
			t.Fatal(err)
		}
	}
	round()
	round()
	if n := programMallocs(func() {
		for i := 0; i < 3000; i++ {
			round()
		}
	}); n != 0 {
		t.Fatalf("%d objects allocated over 3000 warm rounds, want 0", n)
	}
}

// programMallocs runs f with every allocation profiled and returns the
// number of objects allocated on stacks through repro/internal code.
// Process-wide counters would also see runtime background work (the
// scavenger growing a timer heap, for one), which no program change can
// remove.
func programMallocs(f func()) int64 {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	snapshot := func() map[[32]uintptr]int64 {
		runtime.GC() // the heap profile trails by up to two cycles
		runtime.GC()
		n, _ := runtime.MemProfile(nil, true)
		var recs []runtime.MemProfileRecord
		for ok := false; !ok; {
			recs = make([]runtime.MemProfileRecord, n+64)
			n, ok = runtime.MemProfile(recs, true)
		}
		byStack := make(map[[32]uintptr]int64)
		for _, r := range recs[:n] {
			frames := runtime.CallersFrames(r.Stack())
			for more := true; more; {
				var fr runtime.Frame
				fr, more = frames.Next()
				if strings.HasPrefix(fr.Function, "repro/internal/") {
					byStack[r.Stack0] += r.AllocObjects
					break
				}
			}
		}
		return byStack
	}
	before := snapshot()
	f()
	var n int64
	for stack, objs := range snapshot() {
		n += objs - before[stack]
	}
	return n
}

// TestScheduleDeltaSteadyStateAllocs extends the zero-alloc contract to
// delta rounds: once the per-VM memo is warm, a steady fleet reuses every
// row without allocating. (Churn under delta may allocate — new VM
// identities insert into the memo's id→slot map — so only the steady
// state is gated.)
func TestScheduleDeltaSteadyStateAllocs(t *testing.T) {
	bundle, err := sweep.TrainedBundle(benchSeed)
	if err != nil {
		t.Fatal(err)
	}
	cost := sched.NewCostModel(network.PaperTopology(), power.Atom{}, 1.0/6)
	problem := syntheticProblem(24, 16)
	bf := sched.NewBestFit(cost, sched.NewML(bundle))
	bf.Delta = true
	placement := make(model.Placement, len(problem.VMs))
	for i := 0; i < 2; i++ {
		clear(placement)
		if err := bf.ScheduleInto(problem, placement); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(5, func() {
		clear(placement)
		if err := bf.ScheduleInto(problem, placement); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state delta ScheduleInto allocates %.1f objects per round, want 0", allocs)
	}
	if st := bf.LastRoundStats(); st.RowsReused != len(problem.VMs) {
		t.Fatalf("steady delta reused %d of %d rows", st.RowsReused, len(problem.VMs))
	}
}

// TestScheduleChurnAllocs extends the allocation contract to workload
// churn: a Best-Fit whose round storage was grown once keeps allocating
// nothing while the VM set shrinks and grows between rounds (the problem
// sizes a churning manager hands it), as long as no round exceeds the
// high-water mark.
func TestScheduleChurnAllocs(t *testing.T) {
	bundle, err := sweep.TrainedBundle(benchSeed)
	if err != nil {
		t.Fatal(err)
	}
	cost := sched.NewCostModel(network.PaperTopology(), power.Atom{}, 1.0/6)
	bf := sched.NewBestFit(cost, sched.NewML(bundle))
	big := syntheticProblem(30, 16)
	mid := syntheticProblem(22, 16)
	small := syntheticProblem(9, 16)
	placement := make(model.Placement, len(big.VMs))
	// Warm every size once (the high-water mark is big's).
	for _, p := range []*sched.Problem{big, mid, small, big} {
		clear(placement)
		if err := bf.ScheduleInto(p, placement); err != nil {
			t.Fatal(err)
		}
	}
	sizes := []*sched.Problem{big, small, mid, big, mid, small}
	i := 0
	allocs := testing.AllocsPerRun(6, func() {
		p := sizes[i%len(sizes)]
		i++
		clear(placement)
		if err := bf.ScheduleInto(p, placement); err != nil {
			t.Fatal(err)
		}
		if len(placement) != len(p.VMs) {
			t.Fatalf("placement incomplete: %d/%d", len(placement), len(p.VMs))
		}
	})
	if allocs != 0 {
		t.Fatalf("churning ScheduleInto allocates %.1f objects per round, want 0", allocs)
	}
}

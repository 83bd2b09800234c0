package sim_test

// Sharded-tick determinism: Engine.Step's parallel phases — the chunked
// workload fill and the per-DC resolution — must be byte-identical to the
// serial tick at any worker count. The RT-noise pre-pass pins the
// "sim/rt" stream order, the fill draws from per-(VM, tick) streams and
// writes only its chunk's rows, the resolution writes only PM-/guest-
// indexed state, and every accumulation (per-DC watts, ledger, monitor
// draws) runs serially in inventory order — so the fingerprint of a run,
// covering every truth field of every VM and PM on every tick, cannot
// depend on TickWorkers.

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/sim"
)

// withProcs raises GOMAXPROCS to at least n for the test: the tick pool
// never runs wider than GOMAXPROCS, so without it a wide TickWorkers
// would silently test a narrower tick.
func withProcs(t *testing.T, n int) {
	t.Helper()
	if prev := runtime.GOMAXPROCS(0); prev < n {
		runtime.GOMAXPROCS(n)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

// allocsPerRun is testing.AllocsPerRun without its GOMAXPROCS(1) pin,
// under which every pool call runs inline on the caller and the sharded
// path goes unmeasured. Like AllocsPerRun it runs f once first and
// truncates the average.
func allocsPerRun(runs int, f func()) uint64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(runs)
}

// shardFleet builds one engine of the determinism suite at a tick width;
// between runs before every tick, at fixed points of the run.
type shardFleet func(t *testing.T, workers int) (e *sim.Engine, between func(tick int))

// faultFleet is a 6-DC fleet with a crash, a drain and a recovery mid-run:
// the sharded phases must stay deterministic across crash holes in the
// guest lists and draining hosts.
func faultFleet(t *testing.T, workers int) (*sim.Engine, func(int)) {
	sc, err := scenario.Build(scenario.Spec{
		Name: "shard-test", Seed: 99,
		DCs: 6, PMsPerDC: 3, VMs: 24,
		LoadScale: 1.5, NoiseSD: 0.25, HomeBias: 0.5,
		TickWorkers: workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.World.PlaceInitial(sc.HomePlacement()); err != nil {
		t.Fatal(err)
	}
	e := sc.World.Engine
	return e, func(tick int) {
		switch tick {
		case 8:
			must(t, e.FailPM(e.PMSpecAt(1).ID))
		case 10:
			must(t, e.DrainPM(e.PMSpecAt(7).ID))
		case 16:
			must(t, e.RecoverPM(e.PMSpecAt(1).ID))
			must(t, e.RecoverPM(e.PMSpecAt(7).ID))
		}
	}
}

// churnFleet is the churn-poisson fleet with scripted arrivals admitted,
// placed and retired by hand, so the fill view has slot gaps and reused
// slots and its chunks mix static and dynamic VMs.
func churnFleet(t *testing.T, workers int) (*sim.Engine, func(int)) {
	spec := scenario.MustPreset(scenario.ChurnPoisson, 99)
	spec.TickWorkers = workers
	sc, err := scenario.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.World.PlaceInitial(sc.HomePlacement()); err != nil {
		t.Fatal(err)
	}
	e := sc.World.Engine
	arrivals := sc.Script.Arrivals
	if len(arrivals) < 16 {
		t.Fatalf("script too short: %d arrivals", len(arrivals))
	}
	handles := map[int]sim.VMHandle{}
	admit := func(lo, hi int) {
		p := model.Placement{}
		for i := lo; i < hi; i++ {
			h, err := e.AdmitVM(arrivals[i].Spec)
			must(t, err)
			handles[i] = h
			if i%3 != 2 { // every third arrival stays unplaced
				p[arrivals[i].Spec.ID] = e.PMSpecAt(i % e.NumPMs()).ID
			}
		}
		must(t, e.ApplySchedule(p))
	}
	retire := func(is ...int) {
		for _, i := range is {
			must(t, e.RetireVM(handles[i]))
		}
	}
	return e, func(tick int) {
		switch tick {
		case 0:
			admit(0, 12)
		case 5:
			retire(2, 5, 7, 8)
		case 9:
			admit(12, 15) // reuses retired slots
		case 14:
			retire(0, 13)
		case 18:
			admit(15, 16)
		}
	}
}

// overlayFleet runs serve's Overlay workload: HTTP-style dynamic VMs the
// trace generator does not know, with client-reported loads that change
// between ticks, admitted into and retired from the middle of the fill
// view.
func overlayFleet(t *testing.T, workers int) (*sim.Engine, func(int)) {
	var ov *serve.Overlay
	spec := scenario.Spec{
		Name: "shard-overlay", Seed: 5,
		DCs: 4, PMsPerDC: 3, VMs: 10,
		LoadScale: 1.3, NoiseSD: 0.2, HomeBias: 0.6,
		ExtraVMSlots: 16,
		TickWorkers:  workers,
		WrapWorkload: func(w sim.Workload) sim.Workload {
			ov = serve.NewOverlay(w, 4)
			return ov
		},
	}
	sc, err := scenario.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.World.PlaceInitial(sc.HomePlacement()); err != nil {
		t.Fatal(err)
	}
	e := sc.World.Engine
	handles := map[model.VMID]sim.VMHandle{}
	load := func(id model.VMID, tick int) model.Load {
		return model.Load{RPS: float64(5 + int(id)%7*3 + tick%4), BytesInReq: 600, BytesOutRq: 20000, CPUTimeReq: 0.01}
	}
	admit := func(tick int, ids ...model.VMID) {
		p := model.Placement{}
		for _, id := range ids {
			home := model.DCID(int(id) % 4)
			h, err := e.AdmitVM(model.VMSpec{
				ID: id, Name: "dyn", ImageSizeGB: 4, BaseMemMB: 256, MaxMemMB: 1024,
				Terms: model.DefaultSLATerms, PriceEURh: 0.17, HomeDC: home,
			})
			must(t, err)
			handles[id] = h
			ov.Register(id, model.LocationID(home), load(id, tick))
			p[id] = e.PMSpecAt(int(id) % e.NumPMs()).ID
		}
		must(t, e.ApplySchedule(p))
	}
	retire := func(ids ...model.VMID) {
		for _, id := range ids {
			must(t, e.RetireVM(handles[id]))
			ov.Remove(id)
		}
	}
	return e, func(tick int) {
		switch tick {
		case 0:
			admit(tick, 1000, 1001, 1002, 1003, 1004, 1005)
		case 6:
			retire(1001, 1004)
		case 11:
			admit(tick, 1006, 1007, 1008)
		case 17:
			retire(1000)
		}
		for id := range handles {
			if ov.Registered(id) {
				ov.SetLoad(id, model.LocationID(int(id)%4), load(id, tick))
			}
		}
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// runFingerprint drives a fleet for `ticks` ticks at the given worker
// count and hashes every observable bit of engine state after each tick.
func runFingerprint(t *testing.T, fleet shardFleet, workers, ticks int) uint64 {
	t.Helper()
	e, between := fleet(t, workers)

	h := fnv.New64a()
	var buf [8]byte
	w64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	wf := func(f float64) { w64(math.Float64bits(f)) }

	for tick := 0; tick < ticks; tick++ {
		between(tick)
		s := e.Step()
		wf(s.AvgSLA)
		wf(s.MinSLA)
		wf(s.FacilityWatts)
		w64(uint64(s.ActivePMs))
		wf(s.RevenueEUR)
		wf(s.EnergyEUR)
		wf(s.PenaltyEUR)
		wf(s.ProfitEUR)
		wf(s.TotalRPS)
		w64(uint64(s.UnplacedVMs))
		w64(uint64(s.FailedPMs))
		w64(uint64(s.DrainingPMs))
		for i := 0; i < e.NumVMs(); i++ {
			truth, ok := e.VMTruthByIndex(i)
			if !ok {
				continue
			}
			w64(uint64(i))
			for _, l := range truth.Load {
				wf(l.RPS)
				wf(l.BytesInReq)
				wf(l.BytesOutRq)
				wf(l.CPUTimeReq)
			}
			wf(truth.Total.RPS)
			wf(truth.Required.CPUPct)
			wf(truth.Required.MemMB)
			wf(truth.Required.BWMbps)
			wf(truth.Granted.CPUPct)
			wf(truth.Granted.MemMB)
			wf(truth.Granted.BWMbps)
			wf(truth.Used.CPUPct)
			wf(truth.Used.MemMB)
			wf(truth.Used.BWMbps)
			wf(truth.RTProcess)
			for _, rt := range truth.RTBySource {
				wf(rt)
			}
			wf(truth.SLA)
			wf(truth.QueueLen)
		}
		for j := 0; j < e.NumPMs(); j++ {
			pm, ok := e.PMTruthByIndex(j)
			if !ok {
				continue
			}
			wf(pm.Usage.CPUPct)
			wf(pm.Usage.MemMB)
			wf(pm.Usage.BWMbps)
			wf(pm.ITWatts)
			wf(pm.FacilityWatts)
			w64(uint64(pm.Guests))
		}
		for _, w := range e.PerDCWatts() {
			wf(w)
		}
	}
	return h.Sum64()
}

// TestShardedTickDeterminism pins the sharding contract: 1..N workers,
// including counts above the DC count, produce byte-identical runs —
// through crash, drain and recovery ticks, on a churned fleet with slot
// gaps, and under serve's Overlay workload, where fill chunk boundaries
// cross dynamic VMs.
func TestShardedTickDeterminism(t *testing.T) {
	withProcs(t, 9)
	for _, tc := range []struct {
		name  string
		fleet shardFleet
	}{
		{"faults", faultFleet},
		{"churn", churnFleet},
		{"overlay", overlayFleet},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := runFingerprint(t, tc.fleet, 1, 24)
			for _, workers := range []int{2, 3, 4, 6, 9} {
				if got := runFingerprint(t, tc.fleet, workers, 24); got != want {
					t.Fatalf("TickWorkers=%d fingerprint %x, serial %x", workers, got, want)
				}
			}
		})
	}
}

// TestEngineStepZeroAllocSharded extends the tick allocation gate to the
// sharded tick: the persistent pool wakes its workers and the generator
// hands each fill chunk a scratch stream from its free list without a
// single allocation.
func TestEngineStepZeroAllocSharded(t *testing.T) {
	for _, workers := range []int{2, 4} {
		withProcs(t, workers)
		sc, err := scenario.Build(scenario.Spec{
			Name: "shard-alloc", Seed: 11,
			DCs: 6, PMsPerDC: 8, VMs: 300,
			LoadScale: 1.2, NoiseSD: 0.2, FlashCrowd: true,
			TickWorkers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := sc.World.PlaceInitial(sc.HomePlacement()); err != nil {
			t.Fatal(err)
		}
		eng := sc.World.Engine
		for i := 0; i < 30; i++ { // warmup: monitor rings reach capacity
			eng.Step()
		}
		if avg := allocsPerRun(100, func() { eng.Step() }); avg != 0 {
			t.Fatalf("TickWorkers=%d: Engine.Step allocates %d times per tick, want 0", workers, avg)
		}
	}
}

// TestEngineStepZeroAllocAfterProcsRaised: a generator built at
// GOMAXPROCS 1 holds one fill scratch. Widening the engine afterwards
// must not make its fill chunks wait for one or keep allocating: the
// free list grows to the widest tick seen and then serves every chunk.
func TestEngineStepZeroAllocAfterProcsRaised(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	sc, err := scenario.Build(scenario.Spec{
		Name: "shard-procs", Seed: 5,
		DCs: 6, PMsPerDC: 8, VMs: 300,
		LoadScale: 1.2, NoiseSD: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.World.PlaceInitial(sc.HomePlacement()); err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(4)
	sc.World.SetTickWorkers(4)
	eng := sc.World.Engine
	for i := 0; i < 30; i++ {
		eng.Step()
	}
	if avg := allocsPerRun(100, func() { eng.Step() }); avg != 0 {
		t.Fatalf("Engine.Step allocates %d times per tick after GOMAXPROCS was raised, want 0", avg)
	}
}

// TestEngineWorkersStoppedWhenDropped: engines have no Close, and sweeps
// and benchmarks discard many of them. A dropped sharded engine's pool
// workers must stop once it is collected, and must not keep it alive.
func TestEngineWorkersStoppedWhenDropped(t *testing.T) {
	withProcs(t, 4)
	// Let the workers of engines dropped by earlier tests exit first, so
	// they do not inflate the baseline.
	runtime.GC()
	base := runtime.NumGoroutine()
	for stable := 0; stable < 5; {
		time.Sleep(5 * time.Millisecond)
		if n := runtime.NumGoroutine(); n == base {
			stable++
		} else {
			base, stable = n, 0
		}
	}
	func() {
		sc, err := scenario.Build(scenario.Spec{
			Name: "shard-leak", Seed: 3,
			DCs: 4, PMsPerDC: 2, VMs: 12,
			TickWorkers: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := sc.World.PlaceInitial(sc.HomePlacement()); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			sc.World.Engine.Step()
		}
		if n := runtime.NumGoroutine(); n < base+3 {
			t.Fatalf("%d goroutines with a 4-wide engine alive, want at least %d", n, base+3)
		}
	}()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want %d: a dropped engine's tick workers are still running", runtime.NumGoroutine(), base)
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTickWorkersSetter covers the runtime knob: an engine reconfigured
// mid-run must keep producing the serial run's bytes.
func TestTickWorkersSetter(t *testing.T) {
	mk := func() *sim.World {
		sc, err := scenario.Build(scenario.Spec{
			Name: "shard-setter", Seed: 7,
			DCs: 4, PMsPerDC: 2, VMs: 10,
			LoadScale: 1.2, NoiseSD: 0.2,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := sc.World.PlaceInitial(sc.HomePlacement()); err != nil {
			t.Fatal(err)
		}
		return sc.World
	}
	a, b := mk(), mk()
	if got := b.TickWorkers(); got != 1 {
		t.Fatalf("default TickWorkers = %d, want 1", got)
	}
	b.SetTickWorkers(3)
	for tick := 0; tick < 12; tick++ {
		if tick == 6 {
			b.SetTickWorkers(2) // reconfigure mid-run
		}
		sa, sb := a.Engine.Step(), b.Engine.Step()
		if sa != sb {
			t.Fatalf("tick %d: serial %+v != sharded %+v", tick, sa, sb)
		}
	}
}

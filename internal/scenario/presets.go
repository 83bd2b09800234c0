package scenario

import (
	"fmt"
	"sort"

	"repro/internal/lifecycle"
	"repro/internal/model"
)

// Preset names. Every experiment (and cmd/mdcsim -scenario) builds its
// world from one of these specs; new studies start from a preset and
// override fields, or add a spec literal here.
const (
	// IntraDC is the Figure 4 / heuristics setup: one DC, four Atom
	// hosts, five web-services at 2.4x load with local clients.
	IntraDC = "intra-dc"
	// FollowLoad is the Figure 5 setup: one VM, four single-host DCs,
	// a client base that rotates around the world.
	FollowLoad = "follow-load"
	// FlashCrowd is the Figure 6 setup: four single-host DCs, five VMs,
	// differently scaled regions and the minute-70..90 crowd.
	FlashCrowd = "flash-crowd"
	// MultiDC is the Figure 7 / Table III setup: four single-host DCs,
	// five VMs at nominal load, globally spread clients.
	MultiDC = "multi-dc"
	// Delocation is the §V-C benefit-of-de-locating setup: all load homed
	// in DC 0 beyond its capacity, three remote DCs standing by.
	Delocation = "delocation"
	// GreenSolar is the follow-the-sun extension: solar-discounted energy
	// prices rotating with the daylight.
	GreenSolar = "green-solar"
	// OnlineShift is the online-learning setup: an intra-DC fleet that a
	// mid-run software update silently makes more CPU-expensive.
	OnlineShift = "online-shift"
	// Harvest is the predictor-training fleet: six VMs over eight hosts
	// in four DCs, load spread across regimes by the harvester.
	Harvest = "harvest"
	// Hierarchy is the two-layer-vs-flat ablation base; experiments scale
	// VMs and PMsPerDC up from here.
	Hierarchy = "hierarchy"
	// HeteroFleet is a heterogeneous fleet no paper experiment covers:
	// each DC mixes Atom hosts with one double-size host, so schedulers
	// face asymmetric bins.
	HeteroFleet = "hetero-fleet"
	// GridSpike is a grid-event scenario no paper experiment covers: the
	// multi-DC fleet under a 6-hour 4x electricity-price spike at DC 0.
	GridSpike = "price-spike"
	// XLargeFleet is the production-scale stress preset: ~1000 VMs over
	// 402 hosts in six DCs (the GlobalTopology). It is a *heavy* preset:
	// addressable by name through Preset/MustPreset (and therefore
	// `mdcsim -scenario xlarge` and explicit sweep lists) but excluded
	// from Names(), so "all"-preset sweeps and parity suites stay at
	// interactive cost.
	XLargeFleet = "xlarge"
	// HyperscaleFleet is the fleet-scale stress preset: 20000 VMs over
	// 5100 hosts in six DCs. Like xlarge it is *heavy* — resolvable by
	// name, excluded from Names() — and it is the home of the PR 8
	// machinery: candidate-pruned scheduling rounds and sharded engine
	// ticks (Spec.TickWorkers) are what make it tractable.
	HyperscaleFleet = "hyperscale"
	// ChurnPoisson is the steady-churn scenario: a multi-DC fleet whose
	// VM population turns over continuously — independent Poisson
	// sign-ups with ~3-hour exponential lifetimes riding on a small
	// static base. No paper experiment covers a changing VM set.
	ChurnPoisson = "churn-poisson"
	// ChurnDiurnal is the sign-up-ramp scenario: arrivals follow the day
	// curve (peak at 15:00 UTC), so admission pressure and workload peak
	// together.
	ChurnDiurnal = "churn-diurnal"
	// ChurnStorm is the arrival-storm scenario: waves of short-lived
	// batch VMs slam the fleet every two hours, the stress test for the
	// admission controller's deferral queue.
	ChurnStorm = "churn-storm"
	// FailSparse is the uncorrelated-failure scenario: independent host
	// crashes (exponential MTTF/MTTR) under steady Poisson churn, so
	// fault-evicted VMs compete with fresh arrivals for capacity.
	FailSparse = "fail-sparse"
	// FailAZOutage is the correlated-failure scenario: DC 0 drops out
	// whole for two hours mid-run, the degraded-mode and mass-re-home
	// stress test.
	FailAZOutage = "fail-az-outage"
	// MaintRolling is the planned-maintenance scenario: a rolling drain
	// wave over every host, each given three full scheduling rounds to be
	// migrated empty before its takedown.
	MaintRolling = "maint-rolling"
	// ServeBase is the placement-service scenario (`mdcsim serve`): a
	// quiet multi-DC fleet with no scripted churn — every VM beyond the
	// small static base arrives over the service's HTTP intake — and slot
	// headroom reserved for those dynamic admissions.
	ServeBase = "serve-base"
)

// presets maps names to spec literals. Seeds are zero: callers set them.
var presets = map[string]Spec{
	IntraDC: {
		Name: IntraDC,
		DCs:  1, PMsPerDC: 4, VMs: 5,
		LoadScale: 2.4, NoiseSD: 0.25, HomeBias: 0.97,
	},
	FollowLoad: {
		Name: FollowLoad,
		DCs:  4, PMsPerDC: 1, VMs: 1,
		Rotating: true,
	},
	FlashCrowd: {
		Name: FlashCrowd,
		DCs:  4, PMsPerDC: 1, VMs: 5,
		LoadScale: 1.8, NoiseSD: 0.25, FlashCrowd: true,
	},
	MultiDC: {
		Name: MultiDC,
		DCs:  4, PMsPerDC: 1, VMs: 5,
		LoadScale: 1.0, NoiseSD: 0.2, HomeBias: 0.5,
	},
	Delocation: {
		Name: Delocation,
		DCs:  4, PMsPerDC: 1, VMs: 5,
		LoadScale: 2.1, NoiseSD: 0.2, HomeBias: 0.97,
		AllHomesAt: dcPtr(0),
	},
	GreenSolar: {
		Name: GreenSolar,
		DCs:  4, PMsPerDC: 1, VMs: 5,
		LoadScale: 0.9, NoiseSD: 0.2, HomeBias: 0.3,
		Pricing: Pricing{
			Kind:     "solar",
			Base:     []float64{0.1314, 0.1218, 0.1513, 0.1120},
			SolarDip: 0.95,
		},
	},
	OnlineShift: {
		Name: OnlineShift,
		DCs:  1, PMsPerDC: 4, VMs: 5,
		LoadScale: 1.6, NoiseSD: 0.2, HomeBias: 0.97,
	},
	Harvest: {
		Name: Harvest,
		DCs:  4, PMsPerDC: 2, VMs: 6,
		LoadScale: 2.5, NoiseSD: 0.15,
	},
	Hierarchy: {
		Name: Hierarchy,
		DCs:  4, PMsPerDC: 2, VMs: 8,
		LoadScale: 1.4, NoiseSD: 0.2,
	},
	HeteroFleet: {
		Name: HeteroFleet,
		DCs:  2, VMs: 6,
		LoadScale: 2.0, NoiseSD: 0.2, HomeBias: 0.8,
		PMClasses: []PMClass{
			{PerDC: 2, Capacity: AtomCapacity, Cores: 4},
			{PerDC: 1, Capacity: model.Resources{CPUPct: 800, MemMB: 8192, BWMbps: 2000}, Cores: 8},
		},
	},
	GridSpike: {
		Name: GridSpike,
		DCs:  4, PMsPerDC: 1, VMs: 5,
		LoadScale: 1.0, NoiseSD: 0.2, HomeBias: 0.5,
		Pricing: Pricing{
			Kind: "spike",
			Spikes: []PriceSpike{
				{DC: 0, StartTick: 9 * 60, EndTick: 15 * 60, Factor: 4},
			},
		},
	},
	ChurnPoisson: {
		Name: ChurnPoisson,
		DCs:  4, PMsPerDC: 2, VMs: 6,
		LoadScale: 1.2, NoiseSD: 0.2, HomeBias: 0.6,
		Churn: &lifecycle.ProcessSpec{
			Kind:              lifecycle.Poisson,
			RatePerHour:       8,
			MeanLifetimeTicks: 180, // ~3 h exponential lifetimes
			MinLifetimeTicks:  20,
			LoadScale:         0.8,
		},
	},
	ChurnDiurnal: {
		Name: ChurnDiurnal,
		DCs:  4, PMsPerDC: 2, VMs: 6,
		LoadScale: 1.0, NoiseSD: 0.2, HomeBias: 0.6,
		Churn: &lifecycle.ProcessSpec{
			Kind:              lifecycle.Diurnal,
			RatePerHour:       12, // peak rate at 15:00 UTC
			MeanLifetimeTicks: 150,
			MinLifetimeTicks:  20,
			LoadScale:         0.8,
		},
	},
	ChurnStorm: {
		Name: ChurnStorm,
		DCs:  4, PMsPerDC: 2, VMs: 6,
		LoadScale: 1.3, NoiseSD: 0.2, HomeBias: 0.6,
		Churn: &lifecycle.ProcessSpec{
			// Just under two hours, deliberately off the 10-tick round
			// grid so storm VMs wait measurably for their first round.
			Kind:              lifecycle.Waves,
			WaveEvery:         115,
			WaveSize:          16,
			MeanLifetimeTicks: 100, // short-lived batch jobs
			MinLifetimeTicks:  30,
			LoadScale:         1.0,
		},
	},
	FailSparse: {
		Name: FailSparse,
		DCs:  4, PMsPerDC: 2, VMs: 6,
		LoadScale: 1.2, NoiseSD: 0.2, HomeBias: 0.6,
		Churn: &lifecycle.ProcessSpec{
			Kind:              lifecycle.Poisson,
			RatePerHour:       6,
			MeanLifetimeTicks: 180,
			MinLifetimeTicks:  20,
			LoadScale:         0.8,
		},
		Faults: &lifecycle.FaultSpec{
			// ~4 expected crashes over a 240-tick run of the 8-host fleet,
			// each down about an hour and a half.
			HostMTTFTicks: 500,
			HostMTTRTicks: 90,
		},
	},
	FailAZOutage: {
		Name: FailAZOutage,
		DCs:  4, PMsPerDC: 2, VMs: 8,
		LoadScale: 1.1, NoiseSD: 0.2, HomeBias: 0.5,
		Churn: &lifecycle.ProcessSpec{
			Kind:              lifecycle.Poisson,
			RatePerHour:       4,
			MeanLifetimeTicks: 180,
			MinLifetimeTicks:  20,
			LoadScale:         0.8,
		},
		Faults: &lifecycle.FaultSpec{
			// DC 0 (a quarter of the fleet) out for two hours starting at
			// minute 65 — deliberately off the 10-tick round grid, so the
			// evicted VMs measurably wait for the next round. A 240-tick
			// run covers both the outage and the recovery.
			Outages: []lifecycle.OutageSpec{
				{DC: 0, StartTick: 65, DurationTicks: 120},
			},
		},
	},
	MaintRolling: {
		Name: MaintRolling,
		DCs:  4, PMsPerDC: 2, VMs: 8,
		LoadScale: 1.0, NoiseSD: 0.2, HomeBias: 0.5,
		Faults: &lifecycle.FaultSpec{
			// Drain every host in turn: three full 10-tick rounds to empty
			// each before its takedown, 20 minutes offline, next host
			// starting while the previous one is still down.
			Maintenance: &lifecycle.MaintenanceSpec{
				StartTick:          30,
				EveryTicks:         25,
				DrainDeadlineTicks: 30,
				OfflineTicks:       20,
			},
		},
	},
	ServeBase: {
		Name: ServeBase,
		DCs:  4, PMsPerDC: 2, VMs: 4,
		LoadScale: 0.8, NoiseSD: 0.2, HomeBias: 0.6,
		// Headroom for HTTP-admitted VMs; the intake queue bound (serve's
		// -queue-depth) must stay under this so AdmitVM cannot run out of
		// engine slots for accepted offers.
		ExtraVMSlots: 64,
	},
}

// heavyPresets holds the presets too expensive for "run everything"
// loops: resolvable by name, never enumerated by Names().
var heavyPresets = map[string]Spec{
	XLargeFleet: {
		Name: XLargeFleet,
		DCs:  6, PMsPerDC: 67, VMs: 1000,
		LoadScale: 1.0, NoiseSD: 0.2, HomeBias: 0.6,
	},
	HyperscaleFleet: {
		Name: HyperscaleFleet,
		DCs:  6, PMsPerDC: 850, VMs: 20000,
		LoadScale: 1.0, NoiseSD: 0.2, HomeBias: 0.6,
		TickWorkers: 4,
	},
}

// Names lists the standard preset names in stable order. Heavy presets
// (see HeavyNames) are excluded: every caller of Names treats the list as
// "run all of these", which must stay interactive.
func Names() []string {
	out := make([]string, 0, len(presets))
	for name := range presets {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// HeavyNames lists the heavy preset names in stable order.
func HeavyNames() []string {
	out := make([]string, 0, len(heavyPresets))
	for name := range heavyPresets {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Preset returns a deep copy of the named spec with the given seed, so
// callers may override any field — including slice elements — without
// corrupting the shared preset table. Both standard and heavy presets
// resolve here.
func Preset(name string, seed uint64) (Spec, error) {
	spec, ok := presets[name]
	if !ok {
		spec, ok = heavyPresets[name]
	}
	if !ok {
		return Spec{}, fmt.Errorf("scenario: unknown preset %q (have %v, heavy %v)", name, Names(), HeavyNames())
	}
	spec.Seed = seed
	spec.PMClasses = append([]PMClass(nil), spec.PMClasses...)
	spec.Pricing.Base = append([]float64(nil), spec.Pricing.Base...)
	spec.Pricing.Spikes = append([]PriceSpike(nil), spec.Pricing.Spikes...)
	if spec.VMScale != nil {
		scale := make(map[model.VMID][]float64, len(spec.VMScale))
		for id, row := range spec.VMScale {
			scale[id] = append([]float64(nil), row...)
		}
		spec.VMScale = scale
	}
	if spec.AllHomesAt != nil {
		dc := *spec.AllHomesAt
		spec.AllHomesAt = &dc
	}
	if spec.UniformClass != nil {
		c := *spec.UniformClass
		spec.UniformClass = &c
	}
	if spec.Churn != nil {
		churn := *spec.Churn
		spec.Churn = &churn
	}
	if spec.Faults != nil {
		faults := *spec.Faults
		faults.Outages = append([]lifecycle.OutageSpec(nil), faults.Outages...)
		if faults.Maintenance != nil {
			m := *faults.Maintenance
			faults.Maintenance = &m
		}
		spec.Faults = &faults
	}
	return spec, nil
}

// MustPreset is Preset for compile-time-constant names; it panics on
// unknown names.
func MustPreset(name string, seed uint64) Spec {
	spec, err := Preset(name, seed)
	if err != nil {
		panic(err)
	}
	return spec
}

func dcPtr(dc model.DCID) *model.DCID { return &dc }

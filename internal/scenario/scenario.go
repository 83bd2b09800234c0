// Package scenario is the shared world-building layer: a declarative Spec
// describing a multi-DC fleet (DC count, PM/VM mix, workload shape, price
// profile) plus named presets, so every experiment, command and example
// constructs its world through one Build call and a new scenario is a spec
// literal, not a new file.
//
// The package sits above sim (it assembles Inventory + Topology + Workload
// into a World) and below experiments/cmd, which consume it.
package scenario

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/lifecycle"
	"repro/internal/model"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/trace"
)

// AtomCapacity is the per-PM capacity of the paper's Atom hosts: 4 cores,
// 4 GB of RAM and a 1 Gbps NIC.
var AtomCapacity = model.Resources{CPUPct: 400, MemMB: 4096, BWMbps: 1000}

// PMClass describes one group of identical physical machines per DC; a
// spec with several classes builds a heterogeneous fleet.
type PMClass struct {
	PerDC    int
	Capacity model.Resources
	Cores    int
}

// PriceSpike is a transient electricity-price excursion at one DC — a
// grid event the scheduler should dodge by de-locating load.
type PriceSpike struct {
	DC        model.DCID
	StartTick int
	EndTick   int     // first tick after the spike
	Factor    float64 // price multiplier during the spike
}

// Pricing selects the electricity-price profile of the scenario.
type Pricing struct {
	// Kind is "" or "flat" (static Table II prices), "solar" (SolarPricing
	// dips while each DC's sun shines) or "spike" (transient excursions).
	Kind string
	// Base overrides the per-DC base prices (nil keeps Table II).
	Base []float64
	// SolarDip is the maximal price reduction at local solar noon (solar).
	SolarDip float64
	// Spikes are the excursions of a "spike" profile.
	Spikes []PriceSpike
}

// Spec declaratively describes a runnable scenario. The zero values of
// most knobs mean "paper defaults"; Build validates the rest.
type Spec struct {
	// Name labels the scenario in reports (presets fill it in).
	Name string
	Seed uint64

	// Fleet shape. DCs draws 1..4 datacenters from the paper topology;
	// PMsPerDC builds that many Atom hosts per DC unless PMClasses is set.
	DCs       int
	PMsPerDC  int
	PMClasses []PMClass
	VMs       int

	// Workload shape.
	LoadScale  float64 // multiplies every request rate (0 = 1.0)
	NoiseSD    float64 // per-tick multiplicative workload noise
	FlashCrowd bool    // inject the Figure 6 minute-70..90 crowd
	// HomeBias is the share of each VM's load originating at its home
	// location (0 = generator default of 0.6; intra-DC experiments use a
	// high bias so clients are local).
	HomeBias float64
	// AllHomesAt homes every VM in one DC instead of round-robin when
	// non-nil (the §V-C de-location setup, where a single DC carries all
	// the load).
	AllHomesAt *model.DCID
	// UniformClass assigns every VM the same service class instead of
	// cycling through the built-in mix.
	UniformClass *trace.ServiceClass
	// Rotating replaces the diurnal per-home workload with the Figure 5
	// follow-the-load shape: a single VM whose dominant client region
	// rotates around the world. Requires VMs == 1.
	Rotating bool
	// VMScale overrides the uniform LoadScale with per-(VM, source) rows
	// (the harvest runs spread VMs across load regimes this way).
	VMScale map[model.VMID][]float64

	// Pricing selects the electricity-price profile.
	Pricing Pricing

	// Churn enables the dynamic workload lifecycle: the process expands
	// at Build time into a deterministic script of VM arrivals and
	// departures (see internal/lifecycle), the workload generator learns
	// the whole roster up front, and the engine reserves slots for the
	// script's peak concurrency. nil keeps the classic fixed population.
	Churn *lifecycle.ProcessSpec

	// Faults enables the fault-injection layer: the spec expands at Build
	// time into a deterministic script of host crashes/repairs, rolling
	// maintenance drains and DC outages (see internal/lifecycle). nil
	// keeps the classic immortal fleet.
	Faults *lifecycle.FaultSpec

	// ExtraVMSlots reserves engine slots for dynamically admitted VMs on
	// top of what a churn script's peak concurrency already claims. Tests
	// and tools that drive a hand-written lifecycle script (no Churn
	// process) need this to admit anything at all.
	ExtraVMSlots int

	// TickWorkers sets the engine's parallel tick width — the chunked
	// workload fill and the per-DC resolution (sim.Config.TickWorkers).
	// Ticks are byte-identical and allocation-free at any worker count;
	// <= 1 runs serially. Heavy presets set this so fleet-scale ticks use
	// the cores they are given.
	TickWorkers int

	// Params overrides the world's ground-truth constants when non-nil.
	Params *sim.Params

	// WrapWorkload, when non-nil, wraps the built trace generator before
	// the world is assembled, letting a caller layer extra load sources on
	// top of the scripted shape (serve mode overlays per-VM load reported
	// by clients this way). The wrapper must preserve the Workload
	// determinism contract: same tick + roster in, same vectors out.
	WrapWorkload func(sim.Workload) sim.Workload
}

// Scenario bundles the pieces of a ready-to-run experiment setup.
type Scenario struct {
	Spec      Spec
	World     *sim.World
	Inventory *cluster.Inventory
	Topology  *network.Topology
	Generator *trace.Generator
	// VMs is the static population (the Inventory's VM set); scripted
	// churn arrivals are not included.
	VMs []model.VMSpec
	// Script is the generated arrival schedule of a churn scenario (nil
	// for fixed populations). Runners feed it through lifecycle.NewRunner
	// into core.ManagerConfig.Lifecycle.
	Script *lifecycle.Script
	// Faults is the generated failure/maintenance schedule (nil for
	// immortal fleets). Runners feed it through lifecycle.NewFaultRunner
	// into core.ManagerConfig.Faults.
	Faults *lifecycle.FaultScript
}

// DefaultVMSpecs builds n VM specs in the paper's style: 4 GB images,
// 256 MB memory floor, EC2-like pricing, homes spread round-robin over dcs.
func DefaultVMSpecs(n, dcs int) []model.VMSpec {
	specs := make([]model.VMSpec, n)
	for i := range specs {
		specs[i] = model.VMSpec{
			ID:          model.VMID(i),
			Name:        fmt.Sprintf("web%d", i),
			ImageSizeGB: 4,
			BaseMemMB:   256,
			MaxMemMB:    1024,
			Terms:       model.DefaultSLATerms,
			PriceEURh:   0.17,
			HomeDC:      model.DCID(i % dcs),
		}
	}
	return specs
}

// Build assembles inventory, topology, workload and world for a spec.
// Specs with up to four DCs run on the paper topology (Brisbane,
// Bangaluru, Barcelona, Boston) exactly as before; five or six DCs switch
// to the production-scale GlobalTopology, whose first four sites are
// bit-identical to the paper's.
func Build(spec Spec) (*Scenario, error) {
	if spec.DCs <= 0 || spec.DCs > 6 {
		return nil, fmt.Errorf("scenario: DCs must be 1..6, got %d", spec.DCs)
	}
	if spec.VMs <= 0 {
		return nil, fmt.Errorf("scenario: need at least one VM")
	}
	if spec.Rotating {
		if spec.VMs != 1 {
			return nil, fmt.Errorf("scenario: Rotating requires exactly one VM, got %d", spec.VMs)
		}
		// The rotating workload has its own fixed shape; reject knobs it
		// would silently ignore rather than let overrides go unnoticed.
		if spec.FlashCrowd || spec.UniformClass != nil || spec.VMScale != nil ||
			spec.NoiseSD != 0 || spec.HomeBias != 0 ||
			(spec.LoadScale != 0 && spec.LoadScale != 1) {
			return nil, fmt.Errorf("scenario: Rotating is incompatible with workload-shape overrides (LoadScale/NoiseSD/HomeBias/FlashCrowd/UniformClass/VMScale)")
		}
	}
	if spec.Churn != nil && (spec.Rotating || spec.VMScale != nil) {
		return nil, fmt.Errorf("scenario: Churn is incompatible with Rotating and VMScale")
	}
	classes := spec.PMClasses
	if len(classes) == 0 {
		if spec.PMsPerDC <= 0 {
			return nil, fmt.Errorf("scenario: need at least one PM per DC")
		}
		classes = []PMClass{{PerDC: spec.PMsPerDC, Capacity: AtomCapacity, Cores: 4}}
	}
	for _, c := range classes {
		if c.PerDC <= 0 {
			return nil, fmt.Errorf("scenario: PM class with non-positive PerDC")
		}
	}
	if spec.LoadScale <= 0 {
		spec.LoadScale = 1
	}

	top := network.PaperTopology()
	tzOffsets := trace.PaperTZOffsets()
	if spec.DCs > 4 {
		top = network.GlobalTopology()
		tzOffsets = trace.GlobalTZOffsets()
	}
	// One client location per topology DC; every downstream size (load
	// vectors, latency tables) follows the topology, so the 4-DC presets
	// are byte-identical to the paper-topology era.
	sources := top.NumDCs()
	if err := applyPricing(top, spec.Pricing, tzOffsets); err != nil {
		return nil, err
	}

	var pms []model.PMSpec
	id := 0
	for dc := 0; dc < spec.DCs; dc++ {
		for _, c := range classes {
			for k := 0; k < c.PerDC; k++ {
				pms = append(pms, model.PMSpec{
					ID: model.PMID(id), DC: model.DCID(dc),
					Capacity: c.Capacity, Cores: c.Cores,
				})
				id++
			}
		}
	}
	vms := DefaultVMSpecs(spec.VMs, spec.DCs)
	if spec.AllHomesAt != nil {
		for i := range vms {
			vms[i].HomeDC = *spec.AllHomesAt
		}
	}
	inv, err := cluster.NewInventory(pms, vms)
	if err != nil {
		return nil, err
	}

	// Churn: expand the arrival process into its deterministic script.
	// The generator learns the full roster (static + every scripted
	// arrival) up front so any VM produces load the moment it is
	// admitted; only the engine's active set decides who is asked.
	var script *lifecycle.Script
	genVMs := vms
	if spec.Churn != nil {
		script, err = lifecycle.Generate(spec.Seed, *spec.Churn, model.VMID(spec.VMs), spec.DCs)
		if err != nil {
			return nil, err
		}
		genVMs = append(append([]model.VMSpec(nil), vms...), script.VMSpecs()...)
	}

	// Faults: expand the failure/maintenance spec into its deterministic
	// script against the concrete fleet (host IDs, DC membership).
	var faults *lifecycle.FaultScript
	if spec.Faults != nil {
		faults, err = lifecycle.GenerateFaults(spec.Seed, *spec.Faults, pms, spec.DCs)
		if err != nil {
			return nil, err
		}
	}

	var cfg trace.Config
	if spec.Rotating {
		cfg = trace.RotatingConfig(spec.Seed, vms[0], sources, tzOffsets)
	} else {
		scale := spec.VMScale
		if scale == nil {
			scale = make(map[model.VMID][]float64, len(genVMs))
			for _, vm := range vms {
				row := make([]float64, sources)
				for i := range row {
					row[i] = spec.LoadScale
				}
				scale[vm.ID] = row
			}
			if script != nil {
				for i := range script.Arrivals {
					row := make([]float64, sources)
					for k := range row {
						row[k] = script.LoadScale
					}
					scale[script.Arrivals[i].Spec.ID] = row
				}
			}
		}
		cfg = trace.Config{
			Seed:      spec.Seed,
			Sources:   sources,
			VMs:       genVMs,
			TZOffsetH: tzOffsets,
			Scale:     scale,
			NoiseSD:   spec.NoiseSD,
			HomeBias:  spec.HomeBias,
		}
		if spec.UniformClass != nil {
			cfg.ClassOf = make(map[model.VMID]trace.ServiceClass, len(vms))
			for _, vm := range vms {
				cfg.ClassOf[vm.ID] = *spec.UniformClass
			}
		}
		if script != nil {
			// Arrivals always carry their scripted service class.
			if cfg.ClassOf == nil {
				cfg.ClassOf = make(map[model.VMID]trace.ServiceClass, len(script.Arrivals))
			}
			for i := range script.Arrivals {
				cfg.ClassOf[script.Arrivals[i].Spec.ID] = script.Arrivals[i].Class
			}
		}
		if spec.FlashCrowd {
			// The paper's crowd hits in minutes 70-90 and "clearly exceeds
			// the capacity of the system".
			for _, vm := range vms {
				cfg.Crowds = append(cfg.Crowds, trace.FlashCrowd{
					StartTick: 70, EndTick: 90, Magnitude: 6,
					Source: model.LocationID(int(vm.HomeDC)), VM: vm.ID,
				})
			}
		}
	}
	gen, err := trace.NewGenerator(cfg)
	if err != nil {
		return nil, err
	}
	var workload sim.Workload = gen
	if spec.WrapWorkload != nil {
		workload = spec.WrapWorkload(gen)
	}
	simCfg := sim.Config{
		Inventory: inv,
		Topology:  top,
		Generator: workload,
		Seed:      spec.Seed,
	}
	if script != nil {
		// Reserve slots for the script's peak concurrency, padded by the
		// admission deferral window: AdmitVM can then only fail under
		// pathological deferral pile-ups, which the controller absorbs as
		// capacity rejections.
		simCfg.ExtraVMSlots = script.SlotBound(lifecycle.DefaultMaxDeferTicks)
	}
	simCfg.ExtraVMSlots += spec.ExtraVMSlots
	simCfg.TickWorkers = spec.TickWorkers
	if spec.Params != nil {
		simCfg.Params = *spec.Params
	}
	world, err := sim.NewWorld(simCfg)
	if err != nil {
		return nil, err
	}
	return &Scenario{Spec: spec, World: world, Inventory: inv, Topology: top, Generator: gen, VMs: vms, Script: script, Faults: faults}, nil
}

// applyPricing installs the requested price schedule on the topology.
func applyPricing(top *network.Topology, p Pricing, tzOffsets []float64) error {
	base := p.Base
	if base == nil {
		base = make([]float64, top.NumDCs())
		for dc := range base {
			base[dc] = top.EnergyPrice(model.DCID(dc))
		}
	} else if len(base) != top.NumDCs() {
		return fmt.Errorf("scenario: pricing has %d base prices, topology has %d DCs",
			len(base), top.NumDCs())
	}
	switch p.Kind {
	case "", "flat":
		if p.Base != nil {
			top.SetPriceSchedule(func(dc model.DCID, tick int) float64 { return base[dc] })
		}
	case "solar":
		dip := p.SolarDip
		if dip <= 0 {
			dip = 0.95
		}
		top.SetPriceSchedule(network.SolarPricing(base, tzOffsets, dip))
	case "spike":
		spikes := p.Spikes
		top.SetPriceSchedule(func(dc model.DCID, tick int) float64 {
			price := base[dc]
			for _, s := range spikes {
				if s.DC == dc && tick >= s.StartTick && tick < s.EndTick && s.Factor > 0 {
					price *= s.Factor
				}
			}
			return price
		})
	default:
		return fmt.Errorf("scenario: unknown pricing kind %q", p.Kind)
	}
	return nil
}

// HomePlacement returns the placement that pins every VM to a PM of its
// home DC — the static baseline of Figure 7 / Table III.
func (s *Scenario) HomePlacement() model.Placement {
	p := make(model.Placement, len(s.VMs))
	for _, vm := range s.VMs {
		pms := s.Inventory.PMsOfDC(vm.HomeDC)
		if len(pms) == 0 {
			p[vm.ID] = model.NoPM
			continue
		}
		p[vm.ID] = pms[int(vm.ID)%len(pms)]
	}
	return p
}

// PileOn returns the placement that stacks every VM onto one host — the
// degenerate starting point several experiments dig themselves out of.
func (s *Scenario) PileOn(pm model.PMID) model.Placement {
	p := make(model.Placement, len(s.VMs))
	for _, vm := range s.VMs {
		p[vm.ID] = pm
	}
	return p
}

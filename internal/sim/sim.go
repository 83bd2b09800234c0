// Package sim is the world model: it turns (placement, workload, time) into
// ground-truth resource usage, response times, SLA levels, power draw and
// money. It substitutes for the paper's physical testbed (Atom 4-core hosts
// under VirtualBox/OpenNebula driven by the Li-BCN workload) while keeping
// the behavioural shape the decision problem depends on:
//
//   - VM CPU need grows with request rate and saturates at the grant;
//   - VM memory is linear in load (the paper's MEM model is linear, r=0.994);
//   - PM CPU exceeds the sum of guest CPU (virtualisation overhead), which
//     is why the paper learns a dedicated PM CPU model;
//   - response time follows a processor-sharing queue with memory- and
//     bandwidth-pressure penalties;
//   - migrating VMs answer nothing (SLA 0) for the migration duration;
//   - empty machines are powered off, active ones follow the Atom curve.
//
// The computation lives in Engine, a flat, index-based core whose tick hot
// path is allocation-free (see engine.go). World wraps an Engine with the
// historical map-shaped API (TickStats with per-DC maps and a placement
// snapshot) so existing callers keep working.
package sim

import (
	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/monitor"
	"repro/internal/network"
	"repro/internal/power"
)

// Params are the ground-truth behavioural constants of the simulated fleet.
type Params struct {
	// TargetRho is the utilisation at which a VM's CPU requirement is sized
	// (the requirement constraint 5.1 of Figure 3).
	TargetRho float64
	// MemPerRPS is the linear memory slope in MB per request/second.
	MemPerRPS float64
	// VMBaseCPUPct is the per-VM idle CPU floor in percent of one core.
	VMBaseCPUPct float64
	// VirtBasePct, VirtPerVMPct and VirtFrac shape the PM CPU overhead:
	// pmCPU = sum(vmCPU) + VirtBasePct + VirtPerVMPct*nGuests + VirtFrac*sum(vmCPU).
	VirtBasePct  float64
	VirtPerVMPct float64
	VirtFrac     float64
	// RTNoiseSD is multiplicative noise on the true response time.
	RTNoiseSD float64
	// QueueDecay is the fraction of gateway backlog that drains per tick
	// on top of the capacity surplus (lost/expired requests).
	QueueDecay float64
	// MaxWaitRT caps the backlog-induced waiting time added to the
	// processing RT (seconds).
	MaxWaitRT float64
	// CPUCostFactor multiplies the true CPU cost of every request without
	// changing the gateway-visible request characteristics — a software
	// update making the same requests more expensive. Zero means 1.
	CPUCostFactor float64
}

// cpuCostFactor returns the effective request-cost multiplier.
func (p Params) cpuCostFactor() float64 {
	if p.CPUCostFactor <= 0 {
		return 1
	}
	return p.CPUCostFactor
}

// DefaultParams returns the constants used across the reproduction.
func DefaultParams() Params {
	return Params{
		TargetRho:     0.7,
		MemPerRPS:     3.0,
		VMBaseCPUPct:  3,
		VirtBasePct:   10,
		VirtPerVMPct:  4,
		VirtFrac:      0.06,
		RTNoiseSD:     0.06,
		QueueDecay:    0.1,
		MaxWaitRT:     15,
		CPUCostFactor: 1,
	}
}

// Workload supplies the per-tick load vectors of every VM. The synthetic
// generator (trace.Generator) and the CSV replayer (trace.Replay) both
// implement it.
//
// Fill writes the load vector of vms[i] into dst[i] for every i. Each
// dst[i] is a caller-owned row with one slot per client location that the
// implementation must fully overwrite (zeroing slots it has no data for),
// never grow or retain — the engine reuses the rows across ticks, which is
// what keeps the tick hot path allocation-free. Results must be
// deterministic in tick and must not depend on how the rows are split
// between calls.
//
// Fill may be called concurrently on disjoint ranges of one tick's rows:
// with Config.TickWorkers > 1 the engine fills contiguous chunks of its
// VM list on parallel workers. No call outlives its Step, so the
// workload's owner may mutate it between Steps.
type Workload interface {
	Fill(tick int, vms []model.VMID, dst []model.LoadVector)
}

// Config assembles a world.
type Config struct {
	Inventory *cluster.Inventory
	Topology  *network.Topology
	Generator Workload
	Power     power.Model
	Params    Params
	Noise     monitor.NoiseConfig
	Seed      uint64
	// ExtraVMSlots reserves capacity for dynamically admitted VMs beyond
	// the static inventory population (the workload-lifecycle subsystem's
	// AdmitVM/RetireVM). Every per-VM engine buffer is sized once to
	// inventory + extra, so churn never reallocates the truth slices. Zero
	// keeps the engine fixed-population, bit-identical to its pre-churn
	// behaviour.
	ExtraVMSlots int
	// TickWorkers sets the worker count for the tick's parallel phases:
	// the chunked workload fill and the per-DC resolution (Engine.Step).
	// Results are byte-identical at any worker count, and the tick is
	// allocation-free at any count; <= 1 (the default) runs on the
	// caller alone. Wider engines keep min(TickWorkers, GOMAXPROCS)-1
	// goroutines between ticks, stopped when the engine is garbage
	// collected. They poll rather than park: each spins 200µs after a
	// tick, then sleeps an eighth of its idle time per check, from 1ms
	// up to 8ms, so an engine idle between ticks costs each of them one
	// wakeup every 8ms.
	TickWorkers int
}

// VMTruth is the hidden per-VM state of one tick.
type VMTruth struct {
	Load       model.LoadVector
	Total      model.Load
	Required   model.Resources
	Granted    model.Resources
	Used       model.Resources
	RTProcess  float64
	RTBySource []float64
	SLA        float64
	QueueLen   float64
	Migrating  bool
	Host       model.PMID
}

// PMTruth is the hidden per-PM state of one tick.
type PMTruth struct {
	Usage         model.Resources // aggregate incl. virtualisation overhead
	On            bool
	ITWatts       float64
	FacilityWatts float64
	Guests        int
}

// TickStats summarises one tick for experiment reporting.
type TickStats struct {
	Tick          int
	AvgSLA        float64 // request-weighted over VMs
	MinSLA        float64
	FacilityWatts float64
	ActivePMs     int
	Migrations    int // migrations started this tick
	RevenueEUR    float64
	EnergyEUR     float64
	PenaltyEUR    float64
	ProfitEUR     float64
	TotalRPS      float64
	// Availability surface for the fault layer (PR 7): active VMs without
	// a host this tick and the current failed/draining host counts.
	UnplacedVMs int
	FailedPMs   int
	DrainingPMs int
	PerDCWatts  map[model.DCID]float64
	Placement   model.Placement
}

// TickSeconds is the tick length in seconds.
const TickSeconds = 60.0

// TickHours is the tick length in hours.
const TickHours = TickSeconds / 3600

// World is the running simulation: a thin adapter that keeps the
// historical map-shaped API on top of the index-based Engine. All state
// lives in the embedded Engine; World only reshapes Step's output. It is
// not safe for concurrent use.
type World struct {
	*Engine
}

// NewWorld validates the configuration and builds a fresh world at tick 0
// with every VM unplaced.
func NewWorld(cfg Config) (*World, error) {
	e, err := NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	return &World{Engine: e}, nil
}

// Step advances the world by one tick and reshapes the Engine's summary
// into the map-carrying TickStats. The numbers are bit-identical to the
// Engine path: Step adds no computation, only the map views.
func (w *World) Step() TickStats {
	s := w.Engine.Step()
	st := TickStats{
		Tick:          s.Tick,
		AvgSLA:        s.AvgSLA,
		MinSLA:        s.MinSLA,
		FacilityWatts: s.FacilityWatts,
		ActivePMs:     s.ActivePMs,
		Migrations:    s.Migrations,
		RevenueEUR:    s.RevenueEUR,
		EnergyEUR:     s.EnergyEUR,
		PenaltyEUR:    s.PenaltyEUR,
		ProfitEUR:     s.ProfitEUR,
		TotalRPS:      s.TotalRPS,
		UnplacedVMs:   s.UnplacedVMs,
		FailedPMs:     s.FailedPMs,
		DrainingPMs:   s.DrainingPMs,
		PerDCWatts:    make(map[model.DCID]float64),
		Placement:     w.State().Placement(),
	}
	watts := w.PerDCWatts()
	for dc, active := range w.PerDCActive() {
		if active > 0 {
			st.PerDCWatts[model.DCID(dc)] = watts[dc]
		}
	}
	return st
}

// Run advances n ticks, invoking cb (if non-nil) after each.
func (w *World) Run(n int, cb func(TickStats)) {
	for i := 0; i < n; i++ {
		st := w.Step()
		if cb != nil {
			cb(st)
		}
	}
}

package sim

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/monitor"
	"repro/internal/network"
	"repro/internal/par"
	"repro/internal/power"
	"repro/internal/queueing"
	"repro/internal/rng"
	"repro/internal/sla"
)

// Engine is the flat-state simulation core. It assigns dense int indices
// to every VM and PM at construction (their positions in the inventory)
// and keeps all per-tick truth in preallocated slices reused across ticks,
// so the tick hot path — workload fill, occupation, queueing, SLA, power,
// money — performs no per-tick map or slice allocations.
//
// The Engine exposes the index-based view directly (HostIndexOf,
// VMTruthByIndex, PerDCWatts); World wraps it with the historical map-
// shaped API. Truth accessors return views into the Engine's reusable
// buffers: they are valid until the next Step and must not be mutated.
//
// An Engine is not safe for concurrent use.
type Engine struct {
	cfg   Config
	state *cluster.State
	obs   *monitor.Observer
	rt    *rng.Stream

	tick    int
	stepped bool
	ledger  sla.Ledger
	energy  power.Accountant

	migrated int // total migrations started
	// migratedAtLastStep snapshots migrated at the end of each Step so the
	// next Step can attribute newly started migrations to itself even when
	// ApplySchedule ran between the two steps.
	migratedAtLastStep int

	// nVM is the slot high-water mark: slots [0, nVM) have ever held a VM.
	// capVM is the fixed slot capacity (static population + ExtraVMSlots);
	// every per-VM buffer below is sized to capVM at construction, so the
	// workload lifecycle (AdmitVM/RetireVM in handle.go) never reallocates.
	nVM, capVM, nPM, nLoc int
	nActive               int
	vmIDs                 []model.VMID // dense index -> ID
	vmSpecs               []model.VMSpec
	pmSpecs               []model.PMSpec

	// Lifecycle slot state (handle.go): activeVM marks live slots, gens
	// counts (re-)admissions per slot — a VMHandle is (slot, gen) — and
	// freeSlots is the reusable-slot stack. vmByID covers static and
	// dynamic VMs alike.
	activeVM  []bool
	gens      []uint32
	freeSlots []int32
	vmByID    map[model.VMID]int

	// fillIDs/fillRows are the compacted active-slot view handed to the
	// workload generator each tick, and fillSlots the slot of each entry;
	// rebuilt on admit/retire only.
	fillIDs   []model.VMID
	fillRows  []model.LoadVector
	fillSlots []int32

	// Placement state, dense mirrors of cluster.State.
	hostOf   []int32   // VM index -> PM index, -1 when unplaced
	guests   [][]int32 // PM index -> guest VM indices, sorted by VMID
	failed   []bool    // PM index -> crashed
	draining []bool    // PM index -> draining (no new placements)
	// nFailed/nDraining mirror the bool slices so the tick summary reports
	// them without a scan.
	nFailed   int
	nDraining int

	// Persistent per-VM dynamics carried across ticks.
	backlog  []float64 // gateway pending-request queue
	downtime []float64 // remaining migration blackout, seconds

	// Per-tick truth, SoA, reused across ticks.
	loadRows  []model.LoadVector // per-VM load vectors, rows of length nLoc
	totals    []model.Load
	required  []model.Resources
	granted   []model.Resources
	used      []model.Resources
	rtProcess []float64
	rtBySrc   []float64 // flattened nVM x nLoc
	slaLvl    []float64
	queueLen  []float64 // reported backlog (0 while unhosted)
	migrating []bool

	pmUsage    []model.Resources
	pmOn       []bool
	pmITWatts  []float64
	pmFacWatts []float64
	pmGuestN   []int

	perDCWatts  []float64
	perDCActive []int

	// Monitor window slots: obsVM maps a VM slot to its observer window
	// slot (set at admission), obsPM a PM index to its window slot.
	obsVM []int32
	obsPM []int32

	// Tick sharding. pool runs the three parallel phases on
	// Config.TickWorkers persistent workers (one worker: inline on the
	// caller): fillFn fills contiguous chunks of the fill view, resolveFn
	// resolves per-DC shards (pmByDC, the PM indices of each DC in
	// inventory order) and observeFn applies contiguous chunks of the
	// active slots' monitor observations. The closures are built once so
	// Step allocates nothing. rtNoise carries the per-guest RT noise draws
	// from the serial pre-pass into the resolution phase, and obsDev the
	// per-VM monitor deviates from the serial money loop into the observe
	// phase, preserving the legacy single-stream draw orders.
	pool      *par.Pool
	pmByDC    [][]int32
	fillFn    func(w, lo, hi int)
	resolveFn func(w, lo, hi int)
	observeFn func(w, lo, hi int)
	rtNoise   []float64
	obsDev    []monitor.Deviates

	// met, when non-nil, receives per-tick counters/gauges and the tick
	// latency at the end of every Step (see SetMetrics). Recording is
	// allocation-free by the obs registry contract.
	met *EngineMetrics
}

// TickSummary is the allocation-free per-tick report of the Engine. The
// per-DC power split lives in Engine.PerDCWatts (a reused slice); World
// folds both into the map-shaped TickStats.
type TickSummary struct {
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
	// Availability surface for the fault layer: active VMs without a host
	// this tick, and the current failed/draining host counts.
	UnplacedVMs int
	FailedPMs   int
	DrainingPMs int
}

// NewEngine validates the configuration and builds a fresh engine at tick
// zero with every VM unplaced.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Inventory == nil || cfg.Topology == nil || cfg.Generator == nil {
		return nil, fmt.Errorf("sim: inventory, topology and generator are required")
	}
	if cfg.Power == nil {
		cfg.Power = power.Atom{}
	}
	if cfg.Params == (Params{}) {
		cfg.Params = DefaultParams()
	}
	if cfg.Noise == (monitor.NoiseConfig{}) {
		// The paper's monitors are noisy by nature (Section IV-B); a zero
		// config means "default distortions", not a perfect oracle.
		cfg.Noise = monitor.DefaultNoise
	}
	if cfg.Inventory.NumDCs() > cfg.Topology.NumDCs() {
		return nil, fmt.Errorf("sim: inventory spans %d DCs but topology has %d",
			cfg.Inventory.NumDCs(), cfg.Topology.NumDCs())
	}
	if cfg.ExtraVMSlots < 0 {
		return nil, fmt.Errorf("sim: negative ExtraVMSlots %d", cfg.ExtraVMSlots)
	}
	inv := cfg.Inventory
	nVM, nPM, nLoc := inv.NumVMs(), inv.NumPMs(), cfg.Topology.NumDCs()
	capVM := nVM + cfg.ExtraVMSlots
	e := &Engine{
		cfg:   cfg,
		state: cluster.NewState(inv),
		obs:   newObserver(cfg),
		rt:    rng.NewNamed(cfg.Seed, "sim/rt"),

		nVM: nVM, capVM: capVM, nPM: nPM, nLoc: nLoc,
		nActive: nVM,
		vmIDs:   make([]model.VMID, capVM),
		vmSpecs: make([]model.VMSpec, capVM),
		pmSpecs: inv.PMs(),

		activeVM:  make([]bool, capVM),
		gens:      make([]uint32, capVM),
		freeSlots: make([]int32, 0, capVM),
		vmByID:    make(map[model.VMID]int, capVM),
		fillIDs:   make([]model.VMID, 0, capVM),
		fillRows:  make([]model.LoadVector, 0, capVM),
		fillSlots: make([]int32, 0, capVM),

		hostOf:   make([]int32, capVM),
		guests:   make([][]int32, nPM),
		failed:   make([]bool, nPM),
		draining: make([]bool, nPM),

		backlog:  make([]float64, capVM),
		downtime: make([]float64, capVM),

		loadRows:  make([]model.LoadVector, capVM),
		totals:    make([]model.Load, capVM),
		required:  make([]model.Resources, capVM),
		granted:   make([]model.Resources, capVM),
		used:      make([]model.Resources, capVM),
		rtProcess: make([]float64, capVM),
		rtBySrc:   make([]float64, capVM*nLoc),
		slaLvl:    make([]float64, capVM),
		queueLen:  make([]float64, capVM),
		migrating: make([]bool, capVM),

		pmUsage:    make([]model.Resources, nPM),
		pmOn:       make([]bool, nPM),
		pmITWatts:  make([]float64, nPM),
		pmFacWatts: make([]float64, nPM),
		pmGuestN:   make([]int, nPM),

		perDCWatts:  make([]float64, nLoc),
		perDCActive: make([]int, nLoc),

		obsVM: make([]int32, capVM),
		obsPM: make([]int32, nPM),

		pool:    par.NewPool(max(cfg.TickWorkers, 1)),
		rtNoise: make([]float64, capVM),
		obsDev:  make([]monitor.Deviates, capVM),
	}
	copy(e.vmSpecs, inv.VMs())
	e.obs.Reserve(capVM, nPM)
	rows := make(model.LoadVector, capVM*nLoc) // one backing array for all rows
	for i := 0; i < capVM; i++ {
		e.hostOf[i] = -1
		e.loadRows[i] = rows[i*nLoc : (i+1)*nLoc : (i+1)*nLoc]
	}
	for i := 0; i < nVM; i++ {
		e.vmIDs[i] = e.vmSpecs[i].ID
		e.activeVM[i] = true
		e.gens[i] = 1
		e.vmByID[e.vmIDs[i]] = i
		e.obsVM[i] = int32(e.obs.EnsureVM(e.vmIDs[i]))
	}
	for j := range e.pmSpecs {
		e.obsPM[j] = int32(e.obs.EnsurePM(e.pmSpecs[j].ID))
	}
	// DC shards for the parallel resolution phase: PM indices grouped by
	// DC, inventory order within each group. The PM fleet is immutable, so
	// this is built once.
	e.pmByDC = make([][]int32, nLoc)
	for j := range e.pmSpecs {
		dc := e.pmSpecs[j].DC
		e.pmByDC[dc] = append(e.pmByDC[dc], int32(j))
	}
	e.fillFn = func(_, lo, hi int) {
		e.cfg.Generator.Fill(e.tick, e.fillIDs[lo:hi], e.fillRows[lo:hi])
		for k := lo; k < hi; k++ {
			e.totals[e.fillSlots[k]] = e.fillRows[k].Total()
		}
	}
	e.resolveFn = func(_, lo, hi int) {
		for _, shard := range e.pmByDC[lo:hi] {
			for _, j := range shard {
				e.resolvePM(int(j))
			}
		}
	}
	e.observeFn = func(_, lo, hi int) {
		for _, i := range e.fillSlots[lo:hi] {
			e.obs.ApplyVM(int(e.obsVM[i]), e.obsDev[i], monitor.Sample{
				Tick:     e.tick,
				Usage:    e.used[i],
				Load:     e.totals[i],
				RT:       e.rtProcess[i],
				SLA:      e.slaLvl[i],
				QueueLen: e.queueLen[i],
			})
		}
	}
	e.rebuildFill()
	return e, nil
}

// newObserver builds the engine's monitor: cfg.Noise over the seed's
// "sim/monitor" stream, with the paper's 10-tick windows.
func newObserver(cfg Config) *monitor.Observer {
	return monitor.NewObserver(cfg.Noise, 10, rng.NewNamed(cfg.Seed, "sim/monitor"))
}

// SetTickWorkers sets the worker count for the parallel phases of Step
// (workload fill, per-DC resolution and monitor observation). n <= 1 runs
// the tick serially; results are byte-identical at any worker count.
func (e *Engine) SetTickWorkers(n int) {
	n = max(n, 1)
	if n == e.pool.Workers() {
		return
	}
	e.pool.Close()
	e.pool = par.NewPool(n)
}

// TickWorkers returns the current tick worker count.
func (e *Engine) TickWorkers() int { return e.pool.Workers() }

// --- static views -----------------------------------------------------------

// State exposes the placement state (for schedulers via the manager).
// Treat it as read-only: placement mutations must go through
// PlaceInitial/ApplySchedule/FailPM, which keep the engine's dense
// mirrors in sync — mutating the State directly desynchronises them.
func (e *Engine) State() *cluster.State { return e.state }

// Observer exposes the monitored view of the world.
func (e *Engine) Observer() *monitor.Observer { return e.obs }

// Topology exposes the network substrate.
func (e *Engine) Topology() *network.Topology { return e.cfg.Topology }

// Inventory exposes the fleet description.
func (e *Engine) Inventory() *cluster.Inventory { return e.cfg.Inventory }

// Params exposes the ground-truth constants.
func (e *Engine) Params() Params { return e.cfg.Params }

// SetParams swaps the ground-truth behavioural constants mid-run — the
// injection point for "hardware or middleware changes" (Section IV-B):
// a kernel update altering the memory footprint, a hypervisor upgrade
// changing its overhead. Learned models trained before the change are
// silently wrong after it; the online-learning extension detects and
// repairs this.
func (e *Engine) SetParams(p Params) { e.cfg.Params = p }

// Tick returns the current simulation tick.
func (e *Engine) Tick() int { return e.tick }

// Ledger returns a copy of the money accounting so far.
func (e *Engine) Ledger() sla.Ledger { return e.ledger }

// TotalMigrations returns the number of migrations started since t=0.
func (e *Engine) TotalMigrations() int { return e.migrated }

// AvgFacilityWatts returns the mean facility draw per tick so far.
func (e *Engine) AvgFacilityWatts() float64 { return e.energy.AvgWatts(TickHours) }

// NumVMs returns the dense VM index space size (the slot high-water
// mark). Under workload churn some slots in [0, NumVMs()) are inactive —
// iterate with ActiveVM, or use NumActiveVMs for the live count.
func (e *Engine) NumVMs() int { return e.nVM }

// NumPMs returns the dense PM index space size.
func (e *Engine) NumPMs() int { return e.nPM }

// NumLocations returns the number of client locations (topology DCs).
func (e *Engine) NumLocations() int { return e.nLoc }

// VMSpecAt returns the VM spec at a dense index.
func (e *Engine) VMSpecAt(i int) model.VMSpec { return e.vmSpecs[i] }

// PMSpecAt returns the PM spec at a dense index.
func (e *Engine) PMSpecAt(j int) model.PMSpec { return e.pmSpecs[j] }

// VMIndex resolves a VM ID — static or dynamically admitted — to its
// dense slot index. Retired VMs do not resolve.
func (e *Engine) VMIndex(id model.VMID) (int, bool) {
	i, ok := e.vmByID[id]
	return i, ok
}

// PMIndex resolves a PM ID to its dense index.
func (e *Engine) PMIndex(id model.PMID) (int, bool) { return e.cfg.Inventory.PMIndex(id) }

// HostIndexOf returns the dense PM index hosting VM index i, or -1.
func (e *Engine) HostIndexOf(i int) int { return int(e.hostOf[i]) }

// PerDCWatts returns this tick's facility draw per DC index. The slice is
// reused across ticks; copy it to retain.
func (e *Engine) PerDCWatts() []float64 { return e.perDCWatts }

// PerDCActive returns this tick's active host count per DC index. The
// slice is reused across ticks; copy it to retain.
func (e *Engine) PerDCActive() []int { return e.perDCActive }

// rtRow returns the per-source response-time row of VM index i.
func (e *Engine) rtRow(i int) []float64 { return e.rtBySrc[i*e.nLoc : (i+1)*e.nLoc] }

// VMTruthByIndex assembles the hidden state of VM index i from the last
// Step. Load and RTBySource alias the Engine's reusable buffers: valid
// until the next Step, not to be mutated.
func (e *Engine) VMTruthByIndex(i int) (VMTruth, bool) {
	if !e.stepped || i < 0 || i >= e.nVM || !e.activeVM[i] {
		return VMTruth{}, false
	}
	host := model.NoPM
	if j := e.hostOf[i]; j >= 0 {
		host = e.pmSpecs[j].ID
	}
	return VMTruth{
		Load:       e.loadRows[i],
		Total:      e.totals[i],
		Required:   e.required[i],
		Granted:    e.granted[i],
		Used:       e.used[i],
		RTProcess:  e.rtProcess[i],
		RTBySource: e.rtRow(i),
		SLA:        e.slaLvl[i],
		QueueLen:   e.queueLen[i],
		Migrating:  e.migrating[i],
		Host:       host,
	}, true
}

// PMTruthByIndex assembles the hidden state of PM index j from the last
// Step.
func (e *Engine) PMTruthByIndex(j int) (PMTruth, bool) {
	if !e.stepped || j < 0 || j >= e.nPM {
		return PMTruth{}, false
	}
	return PMTruth{
		Usage:         e.pmUsage[j],
		On:            e.pmOn[j],
		ITWatts:       e.pmITWatts[j],
		FacilityWatts: e.pmFacWatts[j],
		Guests:        e.pmGuestN[j],
	}, true
}

// VMTruthAt returns the hidden state of a VM from the last Step.
func (e *Engine) VMTruthAt(vm model.VMID) (VMTruth, bool) {
	i, ok := e.VMIndex(vm)
	if !ok {
		return VMTruth{}, false
	}
	return e.VMTruthByIndex(i)
}

// PMTruthAt returns the hidden state of a PM from the last Step.
func (e *Engine) PMTruthAt(pm model.PMID) (PMTruth, bool) {
	j, ok := e.PMIndex(pm)
	if !ok {
		return PMTruth{}, false
	}
	return e.PMTruthByIndex(j)
}

// --- placement --------------------------------------------------------------

// syncPlacement rebuilds the dense placement mirrors from cluster.State.
// Guest lists are kept sorted by VMID, matching State.GuestsOf order. The
// per-PM backing arrays are reused, so repeated syncs settle to zero
// allocations; syncs only happen at placement changes, never per tick.
func (e *Engine) syncPlacement() {
	for j := range e.guests {
		e.guests[j] = e.guests[j][:0]
	}
	for i := 0; i < e.nVM; i++ {
		if !e.activeVM[i] {
			e.hostOf[i] = -1
			continue
		}
		pm := e.state.HostOf(e.vmIDs[i])
		if pm == model.NoPM {
			e.hostOf[i] = -1
			continue
		}
		j, ok := e.PMIndex(pm)
		if !ok {
			e.hostOf[i] = -1
			continue
		}
		e.hostOf[i] = int32(j)
		e.guests[j] = append(e.guests[j], int32(i))
	}
	for j := range e.guests {
		gs := e.guests[j]
		sort.Slice(gs, func(a, b int) bool {
			return e.vmSpecs[gs[a]].ID < e.vmSpecs[gs[b]].ID
		})
	}
}

// PlaceInitial installs a placement with no migration cost, valid only at
// tick zero (before any Step).
func (e *Engine) PlaceInitial(p model.Placement) error {
	if e.tick != 0 {
		return fmt.Errorf("sim: PlaceInitial after tick %d", e.tick)
	}
	_, err := e.state.Apply(p)
	e.syncPlacement() // state may have partially changed even on error
	return err
}

// ApplySchedule installs a new placement, starting a migration (with its
// SLA blackout) for every VM whose host changes.
func (e *Engine) ApplySchedule(p model.Placement) error {
	if err := e.validatePlacementTargets(p); err != nil {
		return err
	}
	old := e.state.Placement()
	moved, err := e.state.Apply(p)
	if err != nil {
		e.syncPlacement() // state may have partially changed
		return err
	}
	// Apply reports movers in placement-map iteration order; sort so the
	// penalty accumulation below is deterministic to the last bit.
	sort.Slice(moved, func(a, b int) bool { return moved[a] < moved[b] })
	for _, vm := range moved {
		i, ok := e.VMIndex(vm)
		if !ok {
			continue
		}
		spec := e.vmSpecs[i]
		oldPM, hadOld := old[vm]
		newPM := p[vm]
		if !hadOld || oldPM == model.NoPM || newPM == model.NoPM {
			continue // initial placement or eviction: no image transfer
		}
		fromDC := e.cfg.Inventory.DCOf(oldPM)
		toDC := e.cfg.Inventory.DCOf(newPM)
		d := e.cfg.Topology.MigrationDuration(spec.ImageSizeGB, fromDC, toDC)
		e.downtime[i] += d
		e.migrated++
		// The explicit fpenalty charge: full price for the downtime.
		e.ledger.AddPenalty(sla.MigrationPenalty(spec.PriceEURh, d/3600))
	}
	e.syncPlacement()
	return nil
}

// --- failure injection ------------------------------------------------------

// FailPM marks a host as failed, evicting its guests. Evicted VMs stay
// unplaced (and earn nothing) until a scheduler reassigns them.
func (e *Engine) FailPM(pm model.PMID) error {
	j, ok := e.PMIndex(pm)
	if !ok {
		return fmt.Errorf("sim: unknown PM %v", pm)
	}
	if e.failed[j] {
		return nil
	}
	e.failed[j] = true
	e.nFailed++
	if e.draining[j] {
		// A crash supersedes an in-progress drain.
		e.draining[j] = false
		e.nDraining--
	}
	for _, vi := range e.guests[j] {
		if err := e.state.Place(e.vmIDs[vi], model.NoPM); err != nil {
			return err
		}
		// In-flight migrations to a dead target are moot; the blackout
		// continues implicitly because the VM is unplaced.
		e.downtime[vi] = 0
	}
	e.syncPlacement()
	return nil
}

// RecoverPM returns a failed or draining host to full service (a failed
// host comes back empty; the next round may use it again).
func (e *Engine) RecoverPM(pm model.PMID) error {
	j, ok := e.PMIndex(pm)
	if !ok {
		return fmt.Errorf("sim: unknown PM %v", pm)
	}
	if e.failed[j] {
		e.failed[j] = false
		e.nFailed--
	}
	if e.draining[j] {
		e.draining[j] = false
		e.nDraining--
	}
	return nil
}

// DrainPM puts a host into drain: its guests keep serving, but new
// placements onto it are rejected until the drain is lifted (RecoverPM)
// or the host is taken down (FailPM). Draining a failed host is a no-op —
// crash and drain are distinct events and crash wins.
func (e *Engine) DrainPM(pm model.PMID) error {
	j, ok := e.PMIndex(pm)
	if !ok {
		return fmt.Errorf("sim: unknown PM %v", pm)
	}
	if e.failed[j] || e.draining[j] {
		return nil
	}
	e.draining[j] = true
	e.nDraining++
	return nil
}

// IsDraining reports whether a host is currently draining.
func (e *Engine) IsDraining(pm model.PMID) bool {
	j, ok := e.PMIndex(pm)
	return ok && e.draining[j]
}

// IsDrainingIndex reports whether the host at dense index j is draining.
func (e *Engine) IsDrainingIndex(j int) bool { return e.draining[j] }

// DrainingPMs returns the currently draining hosts in inventory order.
func (e *Engine) DrainingPMs() []model.PMID {
	var out []model.PMID
	for j := range e.pmSpecs {
		if e.draining[j] {
			out = append(out, e.pmSpecs[j].ID)
		}
	}
	return out
}

// NumFailedPMs is the count of currently failed hosts.
func (e *Engine) NumFailedPMs() int { return e.nFailed }

// NumDrainingPMs is the count of currently draining hosts.
func (e *Engine) NumDrainingPMs() int { return e.nDraining }

// IsFailed reports whether a host is currently failed.
func (e *Engine) IsFailed(pm model.PMID) bool {
	j, ok := e.PMIndex(pm)
	return ok && e.failed[j]
}

// IsFailedIndex reports whether the host at dense index j is failed.
func (e *Engine) IsFailedIndex(j int) bool { return e.failed[j] }

// FailedPMs returns the currently failed hosts in inventory order.
func (e *Engine) FailedPMs() []model.PMID {
	var out []model.PMID
	for j := range e.pmSpecs {
		if e.failed[j] {
			out = append(out, e.pmSpecs[j].ID)
		}
	}
	return out
}

// validatePlacementTargets rejects schedules that place VMs on failed
// hosts, or move new VMs onto draining hosts (guests already there may
// stay while the drain completes); the manager should never offer either,
// so this is a programming-error guard rather than a recoverable state.
func (e *Engine) validatePlacementTargets(p model.Placement) error {
	for vm, pm := range p {
		if pm == model.NoPM {
			continue
		}
		j, ok := e.PMIndex(pm)
		if !ok {
			continue
		}
		if e.failed[j] {
			return fmt.Errorf("sim: placement puts %v on failed host %v", vm, pm)
		}
		if e.draining[j] {
			i, live := e.vmByID[vm]
			if !live || !e.activeVM[i] || e.hostOf[i] != int32(j) {
				return fmt.Errorf("sim: placement puts %v on draining host %v", vm, pm)
			}
		}
	}
	return nil
}

// --- the tick ---------------------------------------------------------------

// RequiredResources computes the true requirement of a VM under the given
// aggregate load — fRequiredResources (constraint 5.1).
func (e *Engine) RequiredResources(spec model.VMSpec, total model.Load) model.Resources {
	return requiredResources(&e.cfg.Params, &spec, &total)
}

// requiredResources is RequiredResources on pointers, for the per-guest
// resolve path, which would otherwise copy the spec and params per call.
func requiredResources(p *Params, spec *model.VMSpec, total *model.Load) model.Resources {
	cpu := p.VMBaseCPUPct + queueing.CPURequiredPct(queueing.Demand{
		RPS: total.RPS, CPUTimeReq: total.CPUTimeReq * p.cpuCostFactor(),
	}, p.TargetRho)
	mem := spec.BaseMemMB + p.MemPerRPS*total.RPS
	if spec.MaxMemMB > 0 && mem > spec.MaxMemMB {
		mem = spec.MaxMemMB
	}
	bw := queueing.BandwidthNeedMbps(total.RPS, total.BytesInReq, total.BytesOutRq)
	return model.Resources{CPUPct: cpu, MemMB: mem, BWMbps: bw}
}

// Step advances the engine by one tick: fills the workload into the dense
// rows, resolves resource occupation on every PM, computes response times,
// SLA, power and money, feeds the monitoring pipeline and returns the tick
// summary. Step performs no allocations at any tick width.
func (e *Engine) Step() TickSummary {
	var t0 time.Time
	if e.met != nil {
		t0 = time.Now()
	}
	p := &e.cfg.Params
	sum := TickSummary{Tick: e.tick, MinSLA: 1}
	for dc := range e.perDCWatts {
		e.perDCWatts[dc] = 0
		e.perDCActive[dc] = 0
	}

	// RT-noise pre-pass, serial: the single "sim/rt" stream is consumed in
	// the legacy order (PMs in inventory order, guests in VMID order) so
	// the parallel phases below never touch a shared RNG and stay
	// byte-identical to the serial tick at any worker count. The draws
	// depend only on the guest lists, so they come before the fill, which
	// leaves the fill and the resolution back to back on the pool.
	if p.RTNoiseSD > 0 {
		for j := 0; j < e.nPM; j++ {
			for _, vi := range e.guests[j] {
				e.rtNoise[vi] = e.rt.LogNormal(-p.RTNoiseSD*p.RTNoiseSD/2, p.RTNoiseSD)
			}
		}
	}

	// Workload only for live slots: fillIDs/fillRows is the compacted
	// active view (the rows alias loadRows, so data lands slot-indexed).
	// The fill draws from per-(VM, tick) streams and each chunk writes
	// only its own rows and totals, so chunks run in parallel.
	e.pool.Run(len(e.fillIDs), e.fillFn)

	// Per-PM resolution. Every write is indexed by the PM or by one of its
	// guests (each VM has exactly one host), there are no accumulators and
	// no RNG draws, so the DC shards are independent and run in parallel.
	e.pool.Run(len(e.pmByDC), e.resolveFn)

	// Accumulation, serial, in inventory order: per-DC splits, money and
	// the monitor draws consume the resolved per-PM state in the same order
	// as the legacy interleaved loop, so floating-point sums, ledger entries
	// and "sim/monitor" stream draws are unchanged to the last bit.
	for j := 0; j < e.nPM; j++ {
		if !e.pmOn[j] {
			continue
		}
		dc := e.pmSpecs[j].DC
		e.perDCWatts[dc] += e.pmFacWatts[j]
		e.perDCActive[dc]++
		sum.FacilityWatts += e.pmFacWatts[j]
		sum.ActivePMs++
		priceKWh := e.cfg.Topology.EnergyPriceAt(dc, e.tick)
		e.ledger.AddEnergy(power.EnergyEUR(e.pmFacWatts[j], TickHours, priceKWh))
		e.energy.Observe(e.pmFacWatts[j], priceKWh, TickHours)
		e.obs.ApplyPM(int(e.obsPM[j]), e.obs.DrawPM(e.pmUsage[j]), e.pmUsage[j])
	}

	sum.FailedPMs = e.nFailed
	sum.DrainingPMs = e.nDraining

	// Unhosted VMs: no service at all.
	for i := 0; i < e.nVM; i++ {
		if !e.activeVM[i] || e.hostOf[i] >= 0 {
			continue
		}
		sum.UnplacedVMs++
		e.required[i] = model.Resources{}
		e.granted[i] = model.Resources{}
		e.used[i] = model.Resources{}
		e.migrating[i] = false
		e.rtProcess[i] = queueing.MaxRT
		row := e.rtRow(i)
		for k := range row {
			row[k] = queueing.MaxRT
		}
		if e.totals[i].RPS <= 0 {
			e.slaLvl[i] = 1
		} else {
			e.slaLvl[i] = 0
		}
		e.queueLen[i] = 0
	}

	// Money and monitor draws per VM, in stable inventory order so
	// floating-point accumulation and the "sim/monitor" draw order are
	// deterministic run to run.
	var slaWeighted, rpsTotal float64
	for i := 0; i < e.nVM; i++ {
		if !e.activeVM[i] {
			continue
		}
		spec := &e.vmSpecs[i]
		lvl := e.slaLvl[i]
		rev := sla.Revenue(spec.PriceEURh, lvl, TickHours)
		e.ledger.AddRevenue(rev)
		sum.RevenueEUR += rev
		w := math.Max(e.totals[i].RPS, 1e-9)
		slaWeighted += lvl * w
		rpsTotal += w
		sum.TotalRPS += e.totals[i].RPS
		if lvl < sum.MinSLA {
			sum.MinSLA = lvl
		}
		e.obsDev[i] = e.obs.DrawVM(e.used[i])
	}

	// Monitor observations, RNG-free now that their deviates are drawn:
	// each VM writes only its own window, so chunks run in parallel.
	e.pool.Run(len(e.fillSlots), e.observeFn)

	if rpsTotal > 0 {
		sum.AvgSLA = slaWeighted / rpsTotal
	} else {
		sum.AvgSLA = 1
	}
	sum.Migrations = e.migrated - e.migratedAtLastStep
	e.migratedAtLastStep = e.migrated
	e.ledger.Tick()
	e.energy.Tick()
	sum.EnergyEUR = e.ledger.EnergyCost()
	sum.PenaltyEUR = e.ledger.Penalties()
	sum.ProfitEUR = e.ledger.Profit()
	e.tick++
	e.stepped = true
	if e.met != nil {
		e.met.recordTick(&sum, e.nActive, time.Since(t0).Seconds())
	}
	return sum
}

// resolvePM resolves resource occupation, queueing, SLA and power for one
// PM and its guests. It writes only PM-indexed and guest-indexed state and
// draws no randomness (RT noise is pre-drawn into rtNoise), so distinct
// PMs may resolve concurrently.
func (e *Engine) resolvePM(j int) {
	p := &e.cfg.Params
	gs := e.guests[j]
	e.pmGuestN[j] = len(gs)
	if len(gs) == 0 {
		e.pmOn[j] = false
		e.pmUsage[j] = model.Resources{}
		e.pmITWatts[j] = 0
		e.pmFacWatts[j] = 0
		return
	}
	e.pmOn[j] = true
	pmSpec := &e.pmSpecs[j]

	// Requirements of every guest under its current load, then the
	// proportional-sharing grant — fOccupation (constraint 5.2).
	var reqSum model.Resources
	for _, vi := range gs {
		e.required[vi] = requiredResources(p, &e.vmSpecs[vi], &e.totals[vi])
		reqSum = reqSum.Add(e.required[vi])
	}
	shCPU, shMem, shBW := cluster.ShareFactors(pmSpec.Capacity, reqSum)
	var sumUsedCPU, sumMem, sumBW float64
	for _, vi := range gs {
		r := e.required[vi]
		e.granted[vi] = model.Resources{
			CPUPct: r.CPUPct * shCPU,
			MemMB:  r.MemMB * shMem,
			BWMbps: r.BWMbps * shBW,
		}
		e.resolveVM(int(vi), pmSpec)
		sumUsedCPU += e.used[vi].CPUPct
		sumMem += e.used[vi].MemMB
		sumBW += e.used[vi].BWMbps
	}
	// PM aggregate: guests plus hypervisor overhead (the reason the
	// paper learns PM CPU separately from the VM sum).
	pmCPU := sumUsedCPU + p.VirtBasePct + p.VirtPerVMPct*float64(len(gs)) + p.VirtFrac*sumUsedCPU
	if pmCPU > pmSpec.Capacity.CPUPct {
		pmCPU = pmSpec.Capacity.CPUPct
	}
	e.pmUsage[j] = model.Resources{CPUPct: pmCPU, MemMB: sumMem, BWMbps: sumBW}
	e.pmITWatts[j] = e.cfg.Power.Watts(pmCPU)
	e.pmFacWatts[j] = power.FacilityWatts(e.cfg.Power, pmCPU)
}

// resolveVM computes the hidden behaviour of one hosted VM for this tick.
func (e *Engine) resolveVM(i int, pmSpec *model.PMSpec) {
	total := &e.totals[i]
	p := &e.cfg.Params
	spec := &e.vmSpecs[i]

	// Migration blackout: consume remaining downtime against this tick.
	downFrac := 0.0
	e.migrating[i] = false
	if d := e.downtime[i]; d > 0 {
		use := math.Min(d, TickSeconds)
		rest := d - use
		if rest <= 1e-9 {
			rest = 0
		}
		e.downtime[i] = rest
		downFrac = use / TickSeconds
		e.migrating[i] = true
	}

	demand := queueing.Demand{
		RPS:        total.RPS,
		CPUTimeReq: total.CPUTimeReq * p.cpuCostFactor(),
		BytesInReq: total.BytesInReq,
		BytesOutRq: total.BytesOutRq,
	}
	grant := queueing.Grant{
		CPUPct:   math.Max(e.granted[i].CPUPct-p.VMBaseCPUPct, 1),
		MemMB:    e.granted[i].MemMB,
		MemReqMB: e.required[i].MemMB,
		BWMbps:   e.granted[i].BWMbps,
		BWReqMbp: e.required[i].BWMbps,
	}
	rt := queueing.ResponseTime(demand, grant)
	// A pending-request backlog at the gateway delays every new arrival by
	// the time needed to serve the queue ahead of it — the reason queue
	// length is a predictive feature in the paper.
	mu := queueing.ServiceCapacityRPS(grant.CPUPct, total.CPUTimeReq*p.cpuCostFactor())
	backlogBefore := e.backlog[i]
	if backlogBefore > 0 && !math.IsInf(mu, 1) && mu > 0 {
		wait := backlogBefore / mu
		if wait > p.MaxWaitRT {
			wait = p.MaxWaitRT
		}
		rt += wait
	}
	if p.RTNoiseSD > 0 {
		rt *= e.rtNoise[i] // pre-drawn in Step's serial noise pass
	}
	if rt > queueing.MaxRT {
		rt = queueing.MaxRT
	}
	e.rtProcess[i] = rt

	// Backlog dynamics: grows by the arrival surplus, drains by the
	// service surplus plus an expiry fraction (impatient clients). An
	// infinite mu means no CPU-costing arrivals this tick (a zero-arrival
	// tick, e.g. right after a churn boundary): the idle gateway clears
	// the whole queue instead of lingering on decay alone.
	backlog := backlogBefore
	if math.IsInf(mu, 1) {
		backlog = 0
	} else {
		backlog += (total.RPS - mu) * TickSeconds
	}
	backlog *= (1 - p.QueueDecay)
	if backlog < 1 {
		backlog = 0
	}
	if backlog > 1e6 {
		backlog = 1e6
	}
	e.backlog[i] = backlog
	e.queueLen[i] = backlog

	// Transport RT per source and the weighted SLA.
	hostDC := pmSpec.DC
	row := e.rtRow(i)
	for loc := range row {
		row[loc] = rt + e.cfg.Topology.LatencyClientDC(model.LocationID(loc), hostDC)
	}
	lvl := sla.WeightedFulfilment(spec.Terms, row, e.loadRows[i])
	// The migration blackout removes the migrating fraction of the tick.
	e.slaLvl[i] = lvl * (1 - downFrac)

	// True resource use: a VM cannot use more than granted, and uses less
	// when the load does not need the full grant.
	wantCPU := p.VMBaseCPUPct + total.RPS*total.CPUTimeReq*p.cpuCostFactor()*100
	e.used[i] = model.Resources{
		CPUPct: math.Min(wantCPU, e.granted[i].CPUPct),
		MemMB:  math.Min(e.required[i].MemMB, e.granted[i].MemMB),
		BWMbps: math.Min(e.required[i].BWMbps, e.granted[i].BWMbps),
	}
}

// Package trace synthesises the Li-BCN 2010-like workload the paper drives
// its experiments with. The original traces (requests to real hosted
// web-sites: file hosting, image galleries, dynamic sites) are not public,
// so the generator reproduces the statistical features the scheduler reacts
// to:
//
//   - strong diurnal request-rate curves, phase-shifted per client region's
//     timezone (the "simulating the effect of different time zones" of
//     Section V-C);
//   - per-service request mixes: heavy-tailed reply sizes for file hosting,
//     CPU-heavy requests for dynamic sites;
//   - multiplicative noise and bursts;
//   - an optional flash-crowd, as in Figure 6 where minutes 70-90 carry a
//     crowd that "clearly exceeds the capacity of the system";
//   - per-(VM, source) scaling so each of the four workloads can be scaled
//     differently, as the paper does.
package trace

import (
	"fmt"
	"math"
	"runtime"
	"strconv"

	"repro/internal/model"
	"repro/internal/rng"
)

// ServiceClass captures the per-request characteristics of a hosted
// web-service type.
type ServiceClass struct {
	Name string
	// CPUTimeReq is the mean no-stress CPU seconds per request.
	CPUTimeReq float64
	// BytesInReq is the mean request payload in bytes.
	BytesInReq float64
	// BytesOutReq is the mean reply payload in bytes.
	BytesOutReq float64
	// OutTailAlpha shapes the Pareto tail of reply sizes (smaller = heavier).
	OutTailAlpha float64
	// BaseRPS is the reference request rate at the diurnal peak before any
	// scaling.
	BaseRPS float64
}

// The three service classes of the Li-BCN collection ("from file hosting to
// image-gallery services"), plus a dynamic application profile.
var (
	FileHosting = ServiceClass{
		Name:         "file-hosting",
		CPUTimeReq:   0.004,
		BytesInReq:   400,
		BytesOutReq:  90_000,
		OutTailAlpha: 1.3,
		BaseRPS:      28,
	}
	ImageGallery = ServiceClass{
		Name:         "image-gallery",
		CPUTimeReq:   0.009,
		BytesInReq:   500,
		BytesOutReq:  38_000,
		OutTailAlpha: 1.7,
		BaseRPS:      36,
	}
	DynamicWeb = ServiceClass{
		Name:         "dynamic-web",
		CPUTimeReq:   0.022,
		BytesInReq:   900,
		BytesOutReq:  9_000,
		OutTailAlpha: 2.2,
		BaseRPS:      42,
	}
)

// Classes lists the built-in service classes.
func Classes() []ServiceClass {
	return []ServiceClass{FileHosting, ImageGallery, DynamicWeb}
}

// ClassByIndex returns one of the built-in classes, cycling.
func ClassByIndex(i int) ServiceClass {
	cs := Classes()
	return cs[((i%len(cs))+len(cs))%len(cs)]
}

// FlashCrowd describes a load spike injected on top of the diurnal curve.
type FlashCrowd struct {
	StartTick int     // first tick of the crowd
	EndTick   int     // first tick after the crowd
	Magnitude float64 // multiplier on the affected source's request rate
	Source    model.LocationID
	VM        model.VMID
}

// Config parameterises a Generator.
type Config struct {
	Seed    uint64
	Sources int // number of client locations
	VMs     []model.VMSpec
	ClassOf map[model.VMID]ServiceClass
	// TZOffsetH[loc] shifts that location's diurnal peak, in hours.
	TZOffsetH []float64
	// Scale[vm][loc] multiplies the request rate of that stream; the paper
	// scales "each of the four workloads differently". A nil map means 1.0.
	Scale map[model.VMID][]float64
	// HomeBias is the share of a VM's load originating from its home
	// location at equal diurnal phase (the rest spreads over other sources).
	HomeBias float64
	// NoiseSD is the per-tick multiplicative log-normal noise sigma.
	NoiseSD float64
	// Crowds are optional flash-crowd injections.
	Crowds []FlashCrowd
	// DiurnalFloor is the night-to-peak ratio (0.15 means nights run at 15%
	// of the peak rate).
	DiurnalFloor float64
}

// Generator produces per-tick load vectors for every VM. Fill may be
// called concurrently on disjoint rows: each call draws from its own
// scratch stream, taken from a free list.
type Generator struct {
	cfg Config
	// vms holds one entry per distinct VM ID, resolved once here so the
	// fill does one map lookup per row; byID maps an ID to its entry.
	vms  []vmEntry
	byID map[model.VMID]int32
	// homeShare and awayShare split a VM's clients: HomeBias at its home
	// source, the remainder uniform across the others.
	homeShare, awayShare float64
	// free is the scratch free list. A buffered channel rather than a
	// sync.Pool: a GC empties a sync.Pool, and refilling it would allocate
	// on the tick path.
	free chan *fillScratch
}

// vmEntry is what the fill needs of one VM.
type vmEntry struct {
	home   int // home source: HomeDC modulo Sources
	class  ServiceClass
	scale  []float64    // Config.Scale row, nil when absent
	crowds []FlashCrowd // this VM's crowds, in Config order
}

// fillScratch is the per-call state of Fill.
type fillScratch struct {
	// s is the reusable per-(VM, tick) stream: each row reseeds it to the
	// state a fresh NewNamed(seed, "trace/<vm>/<tick>") would have, so the
	// draws are identical to building one stream per row without the
	// per-row allocations.
	s    *rng.Stream
	name []byte
	day  []float64 // per-source diurnal factor of the tick being filled
}

// maxFillScratch bounds the free list. Fill never waits for a scratch:
// with the list empty it allocates one, which then joins the list, so
// after the widest round of concurrent calls so far Fill allocates
// nothing again. Only beyond maxFillScratch concurrent calls do the
// extra scratches get dropped, and those calls allocate every time.
const maxFillScratch = 256

// NewGenerator validates the configuration and builds a generator. It
// does not write to the caller's Config: default classes live in the
// generator's own per-VM entries, not in Config.ClassOf.
func NewGenerator(cfg Config) (*Generator, error) {
	if cfg.Sources <= 0 {
		return nil, fmt.Errorf("trace: Sources must be positive, got %d", cfg.Sources)
	}
	if len(cfg.VMs) == 0 {
		return nil, fmt.Errorf("trace: need at least one VM")
	}
	if len(cfg.TZOffsetH) != 0 && len(cfg.TZOffsetH) != cfg.Sources {
		return nil, fmt.Errorf("trace: TZOffsetH has %d entries, want %d", len(cfg.TZOffsetH), cfg.Sources)
	}
	if cfg.HomeBias < 0 || cfg.HomeBias > 1 {
		return nil, fmt.Errorf("trace: HomeBias %v outside [0,1]", cfg.HomeBias)
	}
	if cfg.DiurnalFloor <= 0 {
		cfg.DiurnalFloor = 0.15
	}
	if cfg.HomeBias == 0 {
		cfg.HomeBias = 0.6
	}
	g := &Generator{cfg: cfg, homeShare: 1}
	if n := cfg.Sources; n > 1 {
		g.homeShare = cfg.HomeBias
		g.awayShare = (1 - cfg.HomeBias) / float64(n-1)
	}
	g.indexVMs()
	g.free = make(chan *fillScratch, maxFillScratch)
	for range min(runtime.GOMAXPROCS(0), maxFillScratch) {
		g.free <- g.newScratch()
	}
	return g, nil
}

func (g *Generator) newScratch() *fillScratch {
	return &fillScratch{s: rng.New(0, 0), name: make([]byte, 0, 32), day: make([]float64, g.cfg.Sources)}
}

// indexVMs builds the per-VM entries and the ID index. A VM without a
// ClassOf entry takes ClassByIndex of its position. A repeated ID keeps
// one entry: the class of its first occurrence and the home of its last.
func (g *Generator) indexVMs() {
	vms := g.cfg.VMs
	g.byID = make(map[model.VMID]int32, len(vms))
	g.vms = make([]vmEntry, 0, len(vms))
	for i := range vms {
		id := vms[i].ID
		k, ok := g.byID[id]
		if !ok {
			k = int32(len(g.vms))
			class, ok := g.cfg.ClassOf[id]
			if !ok {
				class = ClassByIndex(i)
			}
			g.vms = append(g.vms, vmEntry{class: class, scale: g.cfg.Scale[id]})
			g.byID[id] = k
		}
		g.vms[k].home = int(vms[i].HomeDC) % g.cfg.Sources
	}
	for _, c := range g.cfg.Crowds {
		if k, ok := g.byID[c.VM]; ok {
			g.vms[k].crowds = append(g.vms[k].crowds, c)
		}
	}
}

// Sources returns the number of client locations.
func (g *Generator) Sources() int { return g.cfg.Sources }

// Class returns the service class of a VM.
func (g *Generator) Class(vm model.VMID) ServiceClass {
	if k, ok := g.byID[vm]; ok {
		return g.vms[k].class
	}
	return g.cfg.ClassOf[vm]
}

// diurnal returns the smooth day curve in [floor, 1] for a local hour.
// Peak at 15:00 local time, trough around 03:00, as in web-hosting traces.
func diurnal(localHour, floor float64) float64 {
	phase := (localHour - 15) / 24 * 2 * math.Pi
	base := (math.Cos(phase) + 1) / 2 // 1 at 15:00, 0 at 03:00
	// Sharpen the peak slightly: real traces have a flatter night.
	base = math.Pow(base, 1.3)
	return floor + (1-floor)*base
}

// Fill implements the sim.Workload contract: it writes the load vector of
// vms[i] into dst[i] for every i, overwriting every slot so rows can be
// reused across ticks. Rows shorter than Sources receive a prefix; slots
// beyond Sources are zeroed. The result is deterministic in (seed, tick)
// and independent of query order and of how the rows are split between
// calls. Fill is safe for concurrent calls on disjoint rows, and it
// allocates nothing once it has served as many concurrent calls before.
func (g *Generator) Fill(tick int, vms []model.VMID, dst []model.LoadVector) {
	var sc *fillScratch
	select {
	case sc = <-g.free:
	default:
		sc = g.newScratch()
	}
	// The diurnal factor depends only on (tick, source): once per call,
	// not once per row.
	hourUTC := float64(tick) / float64(model.TicksPerHour)
	for loc := range sc.day {
		tz := 0.0
		if len(g.cfg.TZOffsetH) > 0 {
			tz = g.cfg.TZOffsetH[loc]
		}
		localHour := math.Mod(hourUTC+tz+240, 24) // +240 keeps Mod positive
		sc.day[loc] = diurnal(localHour, g.cfg.DiurnalFloor)
	}
	for i, id := range vms {
		g.fillRow(sc, id, tick, dst[i])
	}
	select {
	case g.free <- sc:
	default:
	}
}

// Loads returns the load vector of every VM at the given tick in a fresh
// map — the convenience form of Fill for exporters and tests.
func (g *Generator) Loads(tick int) map[model.VMID]model.LoadVector {
	ids, rows := g.allRows()
	g.Fill(tick, ids, rows)
	out := make(map[model.VMID]model.LoadVector, len(ids))
	for i, id := range ids {
		out[id] = rows[i]
	}
	return out
}

// LoadsFor returns one VM's load vector at the given tick.
func (g *Generator) LoadsFor(id model.VMID, tick int) model.LoadVector {
	lv := make(model.LoadVector, g.cfg.Sources)
	g.Fill(tick, []model.VMID{id}, []model.LoadVector{lv})
	return lv
}

// allRows returns the configured VM IDs in Config order with one fresh
// Sources-long row each.
func (g *Generator) allRows() ([]model.VMID, []model.LoadVector) {
	n := len(g.cfg.VMs)
	ids := make([]model.VMID, n)
	rows := make([]model.LoadVector, n)
	backing := make(model.LoadVector, n*g.cfg.Sources)
	for i, vm := range g.cfg.VMs {
		ids[i] = vm.ID
		rows[i] = backing[i*g.cfg.Sources : (i+1)*g.cfg.Sources : (i+1)*g.cfg.Sources]
	}
	return ids, rows
}

// fillRow writes one VM's row from the scratch's per-tick diurnal factors
// and a per-(VM, tick) stream, so noise does not depend on how many times
// or in what order ticks are queried.
func (g *Generator) fillRow(sc *fillScratch, id model.VMID, tick int, row model.LoadVector) {
	for i := range row {
		row[i] = model.Load{}
	}
	k, ok := g.byID[id]
	if !ok {
		return
	}
	vm := &g.vms[k]
	class := &vm.class
	b := append(sc.name[:0], "trace/vm"...)
	b = strconv.AppendInt(b, int64(id), 10)
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(tick), 10)
	sc.name = b
	s := sc.s
	s.Reseed(g.cfg.Seed, rng.NamedSeedBytes(b))
	for loc := 0; loc < g.cfg.Sources; loc++ {
		share := g.awayShare
		if loc == vm.home {
			share = g.homeShare
		}
		rate := class.BaseRPS * sc.day[loc] * share
		scale := 1.0
		if loc < len(vm.scale) {
			scale = vm.scale[loc]
		}
		rate *= scale
		if g.cfg.NoiseSD > 0 {
			rate *= s.LogNormal(-g.cfg.NoiseSD*g.cfg.NoiseSD/2, g.cfg.NoiseSD)
		}
		rate += crowdBoost(vm.crowds, model.LocationID(loc), tick, class.BaseRPS)
		if rate < 0 {
			rate = 0
		}
		// Reply sizes: mean of a bounded Pareto re-sampled per tick to give
		// the monitors realistic variation without per-request simulation.
		out := class.BytesOutReq
		if class.OutTailAlpha > 0 {
			out = 0.7*class.BytesOutReq + 0.3*s.Pareto(class.BytesOutReq*0.4, class.OutTailAlpha)
			if out > class.BytesOutReq*20 {
				out = class.BytesOutReq * 20
			}
		}
		cpuReq := class.CPUTimeReq * s.LogNormal(-0.02, 0.2)
		bytesIn := class.BytesInReq * s.LogNormal(-0.005, 0.1)
		if loc >= len(row) {
			continue // draws stay aligned even when the row is short
		}
		row[loc] = model.Load{
			RPS:        rate,
			BytesInReq: bytesIn,
			BytesOutRq: out,
			CPUTimeReq: cpuReq,
		}
	}
}

// crowdBoost is the extra request rate of the first of one VM's crowds
// that covers (loc, tick), or 0.
func crowdBoost(crowds []FlashCrowd, loc model.LocationID, tick int, baseRPS float64) float64 {
	for _, c := range crowds {
		if c.Source != loc {
			continue
		}
		if tick < c.StartTick || tick >= c.EndTick {
			continue
		}
		// Ramp up over the first quarter, plateau, ramp down over the last.
		span := float64(c.EndTick - c.StartTick)
		pos := float64(tick-c.StartTick) / span
		env := 1.0
		if pos < 0.25 {
			env = pos / 0.25
		} else if pos > 0.75 {
			env = (1 - pos) / 0.25
		}
		return baseRPS * c.Magnitude * env
	}
	return 0
}

// RotatingConfig builds a configuration where a single VM's dominant load
// source rotates across the locations over the day — the Figure 5 scenario
// where the VM should "follow the load" around the world. Each location
// peaks during its local afternoon, and the VM's client base is spread
// evenly, so the dominant source is whichever region is awake.
func RotatingConfig(seed uint64, vm model.VMSpec, sources int, tzOffsets []float64) Config {
	return Config{
		Seed:         seed,
		Sources:      sources,
		VMs:          []model.VMSpec{vm},
		TZOffsetH:    tzOffsets,
		HomeBias:     1.0 / float64(sources), // even spread: pure rotation
		NoiseSD:      0.05,
		DiurnalFloor: 0.05,
	}
}

// PaperTZOffsets returns the approximate timezone offsets (hours from UTC)
// of the paper's four locations: Brisbane +10, Bangaluru +5.5, Barcelona +1,
// Boston -5.
func PaperTZOffsets() []float64 { return []float64{10, 5.5, 1, -5} }

// GlobalTZOffsets extends PaperTZOffsets with the two extra sites of the
// production-scale topology: Frankfurt +1 and Singapore +8. The first four
// entries match PaperTZOffsets exactly.
func GlobalTZOffsets() []float64 { return []float64{10, 5.5, 1, -5, 1, 8} }

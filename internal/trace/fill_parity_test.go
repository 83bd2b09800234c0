package trace

// Fill parity: the production Fill hoists the diurnal curve to once per
// call, resolves each VM through one entry instead of 3 + Sources map
// lookups, scans only the VM's own crowds and runs concurrently on
// disjoint rows.
// None of that may move a bit. oracle below is the generator's fill as it
// was before those changes, kept only as the reference to compare with.

import (
	"math"
	"math/rand/v2"
	"strconv"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/rng"
)

// oracle is the reference fill: per-(VM, source) diurnal curve, map
// lookups for the spec, class and scale, and a scan of every crowd.
type oracle struct {
	cfg     Config
	byID    map[model.VMID]*model.VMSpec
	scratch *rng.Stream
	nameBuf []byte
}

func newOracle(cfg Config) *oracle {
	if cfg.DiurnalFloor <= 0 {
		cfg.DiurnalFloor = 0.15
	}
	if cfg.HomeBias == 0 {
		cfg.HomeBias = 0.6
	}
	classOf := map[model.VMID]ServiceClass{}
	for id, c := range cfg.ClassOf {
		classOf[id] = c
	}
	for i, vm := range cfg.VMs {
		if _, ok := classOf[vm.ID]; !ok {
			classOf[vm.ID] = ClassByIndex(i)
		}
	}
	cfg.ClassOf = classOf
	o := &oracle{cfg: cfg, byID: map[model.VMID]*model.VMSpec{}, scratch: rng.New(0, 0)}
	for i := range cfg.VMs {
		o.byID[cfg.VMs[i].ID] = &cfg.VMs[i]
	}
	return o
}

func (g *oracle) tickStream(id model.VMID, tick int) *rng.Stream {
	b := append(g.nameBuf[:0], "trace/vm"...)
	b = strconv.AppendInt(b, int64(id), 10)
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(tick), 10)
	g.nameBuf = b
	g.scratch.Reseed(g.cfg.Seed, rng.NamedSeedBytes(b))
	return g.scratch
}

func (g *oracle) fillFor(id model.VMID, tick int, row model.LoadVector) {
	for i := range row {
		row[i] = model.Load{}
	}
	vm, ok := g.byID[id]
	if !ok {
		return
	}
	class := g.cfg.ClassOf[id]
	s := g.tickStream(id, tick)
	hourUTC := float64(tick) / float64(model.TicksPerHour)
	for loc := 0; loc < g.cfg.Sources; loc++ {
		tz := 0.0
		if len(g.cfg.TZOffsetH) > 0 {
			tz = g.cfg.TZOffsetH[loc]
		}
		localHour := math.Mod(hourUTC+tz+240, 24)
		day := diurnal(localHour, g.cfg.DiurnalFloor)
		share := g.sourceShare(*vm, model.LocationID(loc))
		rate := class.BaseRPS * day * share
		rate *= g.scale(id, loc)
		if g.cfg.NoiseSD > 0 {
			rate *= s.LogNormal(-g.cfg.NoiseSD*g.cfg.NoiseSD/2, g.cfg.NoiseSD)
		}
		rate += g.crowdBoost(id, model.LocationID(loc), tick, class.BaseRPS)
		if rate < 0 {
			rate = 0
		}
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
			continue
		}
		row[loc] = model.Load{RPS: rate, BytesInReq: bytesIn, BytesOutRq: out, CPUTimeReq: cpuReq}
	}
}

func (g *oracle) sourceShare(vm model.VMSpec, loc model.LocationID) float64 {
	n := g.cfg.Sources
	if n == 1 {
		return 1
	}
	home := model.LocationID(int(vm.HomeDC) % n)
	if loc == home {
		return g.cfg.HomeBias
	}
	return (1 - g.cfg.HomeBias) / float64(n-1)
}

func (g *oracle) scale(vm model.VMID, loc int) float64 {
	if g.cfg.Scale == nil {
		return 1
	}
	row, ok := g.cfg.Scale[vm]
	if !ok || loc >= len(row) {
		return 1
	}
	return row[loc]
}

func (g *oracle) crowdBoost(vm model.VMID, loc model.LocationID, tick int, baseRPS float64) float64 {
	for _, c := range g.cfg.Crowds {
		if c.VM != vm || c.Source != loc {
			continue
		}
		if tick < c.StartTick || tick >= c.EndTick {
			continue
		}
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

// parityConfig is a 4-source fleet with every shape the fill branches
// on: homes beyond the source count and negative, Scale rows missing,
// short and full, explicit and default classes, and crowds that overlap
// on one (VM, source) — where the first listed must win — or name a VM
// the generator does not know.
func parityConfig(idStride int) Config {
	vms := make([]model.VMSpec, 24)
	for i := range vms {
		vms[i] = vmSpec(i*idStride, i%7-1)
	}
	scale := map[model.VMID][]float64{}
	for i, vm := range vms {
		switch i % 4 {
		case 0: // no row
		case 1:
			scale[vm.ID] = []float64{1.7} // shorter than Sources
		case 2:
			scale[vm.ID] = []float64{0.5, 2.5}
		default:
			scale[vm.ID] = []float64{1.1, 0.9, 3, 0.25}
		}
	}
	id := func(i int) model.VMID { return vms[i].ID }
	return Config{
		Seed:      77,
		Sources:   4,
		VMs:       vms,
		TZOffsetH: PaperTZOffsets(),
		Scale:     scale,
		ClassOf:   map[model.VMID]ServiceClass{id(3): DynamicWeb, id(5): FileHosting},
		NoiseSD:   0.25,
		HomeBias:  0.55,
		Crowds: []FlashCrowd{
			{StartTick: 40, EndTick: 200, Magnitude: 6, Source: 1, VM: id(2)},
			{StartTick: 60, EndTick: 120, Magnitude: 2, Source: 1, VM: id(2)},
			{StartTick: 100, EndTick: 300, Magnitude: 4, Source: 3, VM: id(2)},
			{StartTick: 0, EndTick: 1 << 40, Magnitude: 3, Source: 0, VM: id(7)},
			{StartTick: 10, EndTick: 900, Magnitude: 9, Source: 2, VM: 1 << 30},
		},
	}
}

// TestFillParityWithOracle checks that Fill, over random chunk splits run
// from several goroutines at once, is bitwise equal to the reference fill
// for thousands of ticks, large and negative ones included, with unknown
// IDs in the query and rows shorter and longer than Sources.
func TestFillParityWithOracle(t *testing.T) {
	single := parityConfig(1)
	single.Sources, single.TZOffsetH = 1, []float64{3}
	quiet := parityConfig(1)
	quiet.NoiseSD, quiet.TZOffsetH, quiet.HomeBias = 0, nil, 0
	cases := []struct {
		name string
		cfg  Config
	}{
		{"dense-ids", parityConfig(1)},
		{"sparse-ids", parityConfig(1 << 20)},
		{"one-source", single},
		{"no-noise-no-tz", quiet},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := NewGenerator(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref := newOracle(tc.cfg)
			r := rand.New(rand.NewPCG(5, 9))
			ids := []model.VMID{-3, 1 << 30, 123456789}
			for _, vm := range tc.cfg.VMs {
				ids = append(ids, vm.ID)
			}
			rowLen := func(k int) int { return []int{tc.cfg.Sources, 0, 1, tc.cfg.Sources + 2}[k%4] }
			got := make([]model.LoadVector, len(ids))
			want := make([]model.LoadVector, len(ids))
			for k := range ids {
				got[k] = make(model.LoadVector, rowLen(k))
				want[k] = make(model.LoadVector, rowLen(k))
			}
			ticks := 2000
			if testing.Short() {
				ticks = 300
			}
			for n := 0; n < ticks; n++ {
				tick := n
				switch n % 5 {
				case 3:
					tick = r.IntN(1 << 40)
				case 4:
					tick = -r.IntN(100000)
				}
				r.Shuffle(len(ids), func(a, b int) {
					ids[a], ids[b] = ids[b], ids[a]
					got[a], got[b] = got[b], got[a]
					want[a], want[b] = want[b], want[a]
				})
				for k, id := range ids {
					for i := range got[k] {
						got[k][i] = model.Load{RPS: math.NaN()} // Fill must overwrite
					}
					ref.fillFor(id, tick, want[k])
				}
				var wg sync.WaitGroup
				for lo := 0; lo < len(ids); {
					hi := min(len(ids), lo+1+r.IntN(6))
					wg.Add(1)
					go func(lo, hi int) {
						defer wg.Done()
						g.Fill(tick, ids[lo:hi], got[lo:hi])
					}(lo, hi)
					lo = hi
				}
				wg.Wait()
				for k := range ids {
					for i := range want[k] {
						if !sameLoad(got[k][i], want[k][i]) {
							t.Fatalf("tick %d vm %v src %d: Fill %+v, reference %+v", tick, ids[k], i, got[k][i], want[k][i])
						}
					}
				}
			}
		})
	}
}

func sameLoad(a, b model.Load) bool {
	return math.Float64bits(a.RPS) == math.Float64bits(b.RPS) &&
		math.Float64bits(a.BytesInReq) == math.Float64bits(b.BytesInReq) &&
		math.Float64bits(a.BytesOutRq) == math.Float64bits(b.BytesOutRq) &&
		math.Float64bits(a.CPUTimeReq) == math.Float64bits(b.CPUTimeReq)
}

// TestFillCrowdFirstWins pins the overlap rule the per-VM crowd lists
// must keep: where two crowds cover the same (VM, source, tick),
// the one listed first sets the boost.
func TestFillCrowdFirstWins(t *testing.T) {
	cfg := baseConfig()
	cfg.NoiseSD = 0
	big := FlashCrowd{StartTick: 0, EndTick: 100, Magnitude: 8, Source: 2, VM: 0}
	small := big
	small.Magnitude = 2
	cfg.Crowds = []FlashCrowd{big, small}
	a, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Crowds = []FlashCrowd{big}
	b, _ := NewGenerator(cfg)
	if x, y := a.LoadsFor(0, 50)[2], b.LoadsFor(0, 50)[2]; !sameLoad(x, y) {
		t.Fatalf("second crowd changed the boost: %+v vs %+v", x, y)
	}
}

// TestNewGeneratorLeavesClassOfAlone: the generator fills in default
// classes for its own use, never into the caller's map.
func TestNewGeneratorLeavesClassOfAlone(t *testing.T) {
	cfg := baseConfig()
	cfg.ClassOf = map[model.VMID]ServiceClass{0: DynamicWeb}
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.ClassOf) != 1 || cfg.ClassOf[0].Name != DynamicWeb.Name {
		t.Fatalf("caller's ClassOf changed: %v", cfg.ClassOf)
	}
	if g.Class(1).Name == "" {
		t.Fatal("default class missing")
	}
}

// TestFillZeroAlloc: the production fill allocates nothing per call.
func TestFillZeroAlloc(t *testing.T) {
	g, err := NewGenerator(parityConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	ids := []model.VMID{0, 1, 2, 99}
	rows := make([]model.LoadVector, len(ids))
	for i := range rows {
		rows[i] = make(model.LoadVector, 4)
	}
	tick := 0
	if avg := testing.AllocsPerRun(100, func() { g.Fill(tick, ids, rows); tick++ }); avg != 0 {
		t.Fatalf("Fill allocates %.1f times per call, want 0", avg)
	}
}

// Package monitor models what the management middleware can actually see.
//
// The paper's Section IV-B motivates learning precisely because monitored
// data is imperfect: observation windows smear values, virtualization
// overhead adds noise, and the monitors themselves occasionally eat up to
// half an Atom CPU thread. This package turns the simulator's ground truth
// into that imperfect view: windowed averages with multiplicative noise and
// occasional monitor-load spikes, plus EWMA smoothing and the "resources
// used in the last 10 minutes" estimator the non-ML Best-Fit relies on.
package monitor

import (
	"fmt"
	"slices"

	"repro/internal/model"
	"repro/internal/rng"
)

// Sample is one tick's observation of one VM (or PM aggregate).
type Sample struct {
	Tick int
	// Observed resource usage.
	Usage model.Resources
	// Observed load characteristics at the gateway.
	Load model.Load
	// Observed mean response time (seconds) over the tick.
	RT float64
	// SLA fulfilment computed from gateway RTs.
	SLA float64
	// QueueLen is the gateway's pending-request queue for this VM.
	QueueLen float64
}

// NoiseConfig controls observation distortion.
type NoiseConfig struct {
	// RelSD is the multiplicative log-normal sigma applied to resource
	// observations (0.05 = ~5% relative error).
	RelSD float64
	// SpikeProb is the per-tick probability that the monitor itself spikes,
	// inflating the PM CPU observation.
	SpikeProb float64
	// SpikeCPUPct is the CPU the monitor burns during a spike (the paper:
	// "peaking up to 50% of an Atom CPU thread").
	SpikeCPUPct float64
}

// DefaultNoise matches the distortions the paper describes.
var DefaultNoise = NoiseConfig{RelSD: 0.05, SpikeProb: 0.03, SpikeCPUPct: 50}

// Deviates are the random draws of one observation: the standard normal
// deviate of each noisy resource field and, for a PM, the monitor-spike
// fraction. A field whose observation draws nothing holds 0 and is never
// read; Spike is 0 when no spike fired.
type Deviates struct {
	CPU, Mem, BW float64
	Spike        float64
}

// windows is a set of fixed-capacity chronological rings in one flat
// backing array: ring s owns buf[s*w : (s+1)*w]. Once a ring is full,
// pushes overwrite its oldest entry in place, so the steady-state
// observation path allocates nothing, and a ring is addressed by its
// slot without a map lookup or a pointer chase. Pushes to distinct slots
// touch disjoint memory and may run concurrently.
type windows[T any] struct {
	w    int
	buf  []T
	head []ringHead
}

// ringHead is one ring's fill level and the index the next push
// overwrites once the ring is full.
type ringHead struct{ n, next int32 }

// add appends an empty ring and returns its slot. The ring's storage is
// not cleared: an empty ring reads nothing, and a push overwrites before
// a read can reach an element.
func (ws *windows[T]) add() int {
	s := len(ws.head)
	ws.head = append(ws.head, ringHead{})
	ws.buf = slices.Grow(ws.buf, ws.w)[:(s+1)*ws.w]
	return s
}

// reserve grows the capacity to n more rings without writing the new
// storage, so pages fresh from the OS fault in at the first push that
// reaches them rather than here.
func (ws *windows[T]) reserve(n int) {
	if k := len(ws.head) + n; cap(ws.head) < k {
		ws.head = append(make([]ringHead, 0, k), ws.head...)
		ws.buf = append(make([]T, 0, k*ws.w), ws.buf...)
	}
}

// slot returns the element the next push into ring s writes, and
// advances the ring past it.
func (ws *windows[T]) slot(s int) *T {
	h := &ws.head[s]
	k := h.n
	if int(h.n) < ws.w {
		h.n++
	} else {
		k = h.next
		if h.next++; int(h.next) == ws.w {
			h.next = 0
		}
	}
	return &ws.buf[s*ws.w+int(k)]
}

// len returns how many elements ring s holds.
func (ws *windows[T]) len(s int) int { return int(ws.head[s].n) }

// at returns the k-th element of ring s in chronological order, k in
// [0, len(s)).
func (ws *windows[T]) at(s, k int) *T {
	h := ws.head[s]
	return &ws.buf[s*ws.w+(int(h.next)+k)%int(h.n)]
}

// last returns the most recent element of ring s.
func (ws *windows[T]) last(s int) *T { return ws.at(s, ws.len(s)-1) }

// Observer distorts ground truth into monitored samples and keeps per-VM
// and per-PM rolling windows. Each VM and PM owns a window slot for as
// long as the observer tracks it: ObserveVM/ObservePM find the slot by ID,
// while a caller that keeps the slot from EnsureVM/EnsurePM observes in
// two halves, DrawVM/DrawPM (the only stream draws, serial) and
// ApplyVM/ApplyPM (RNG-free, concurrent across distinct slots).
type Observer struct {
	noise  NoiseConfig
	stream *rng.Stream
	window int
	vms    windows[Sample]
	vmSlot map[model.VMID]int32
	vmFree []int32 // slots of forgotten VMs, reused by EnsureVM
	pms    windows[model.Resources]
	pmSlot map[model.PMID]int32
}

// NewObserver builds an observer with the given window length in ticks
// (the paper's Best-Fit looks at the last 10 minutes = 10 ticks).
func NewObserver(noise NoiseConfig, window int, stream *rng.Stream) *Observer {
	if window <= 0 {
		window = 10
	}
	return &Observer{
		noise:  noise,
		stream: stream,
		window: window,
		vms:    windows[Sample]{w: window},
		vmSlot: make(map[model.VMID]int32),
		pms:    windows[model.Resources]{w: window},
		pmSlot: make(map[model.PMID]int32),
	}
}

// Window returns the observation window length in ticks.
func (o *Observer) Window() int { return o.window }

// Reserve sizes the window storage for vms VM and pms PM slots beyond
// those in use, so that as many EnsureVM/EnsurePM calls grow nothing and
// a large fleet is laid out in one allocation per kind.
func (o *Observer) Reserve(vms, pms int) {
	o.vms.reserve(vms)
	o.pms.reserve(pms)
	if len(o.vmSlot) == 0 {
		o.vmSlot = make(map[model.VMID]int32, vms)
	}
	if len(o.pmSlot) == 0 {
		o.pmSlot = make(map[model.PMID]int32, pms)
	}
}

// EnsureVM returns vm's window slot, creating an empty window (reusing a
// forgotten VM's storage when one is free) if vm has none. Churn admits
// VMs between ticks, so the tick's observations of a freshly admitted VM
// allocate nothing.
func (o *Observer) EnsureVM(vm model.VMID) int {
	if s, ok := o.vmSlot[vm]; ok {
		return int(s)
	}
	var s int
	if n := len(o.vmFree); n > 0 {
		s = int(o.vmFree[n-1])
		o.vmFree = o.vmFree[:n-1]
	} else {
		s = o.vms.add()
	}
	o.vmSlot[vm] = int32(s)
	return s
}

// ForgetVM drops a VM's observation window and frees its slot. Retired VMs
// would otherwise accumulate history forever under workload churn; VM IDs
// are never reused, so forgetting is safe.
func (o *Observer) ForgetVM(vm model.VMID) {
	s, ok := o.vmSlot[vm]
	if !ok {
		return
	}
	delete(o.vmSlot, vm)
	o.vms.head[s] = ringHead{}
	o.vmFree = append(o.vmFree, s)
}

// EnsurePM returns pm's window slot, creating an empty window if pm has
// none.
func (o *Observer) EnsurePM(pm model.PMID) int {
	if s, ok := o.pmSlot[pm]; ok {
		return int(s)
	}
	s := o.pms.add()
	o.pmSlot[pm] = int32(s)
	return s
}

// ObserveVM distorts one VM's true state into a monitored sample and logs
// it into the rolling window.
func (o *Observer) ObserveVM(tick int, vm model.VMID, trueUsage model.Resources, load model.Load, rt, slaLvl, queueLen float64) Sample {
	return o.ApplyVM(o.EnsureVM(vm), o.DrawVM(trueUsage), Sample{
		Tick: tick, Usage: trueUsage, Load: load, RT: rt, SLA: slaLvl, QueueLen: queueLen,
	})
}

// DrawVM is the serial half of a VM observation: it draws the deviates of
// a VM whose true usage is trueUsage from the monitor stream, in the order
// ObserveVM draws them. Observations drawn in sequence and applied in any
// order match ObserveVM calls made in the draw order.
func (o *Observer) DrawVM(trueUsage model.Resources) Deviates {
	return Deviates{
		CPU: o.deviate(trueUsage.CPUPct, o.noise.RelSD),
		Mem: o.deviate(trueUsage.MemMB, o.memSD()),
		BW:  o.deviate(trueUsage.BWMbps, o.noise.RelSD),
	}
}

// ApplyVM is the RNG-free half of a VM observation: it distorts truth, the
// VM's true state this tick, with the deviates DrawVM drew for its usage,
// pushes the monitored sample into window slot s and returns it. Calls
// for distinct slots may run concurrently.
func (o *Observer) ApplyVM(s int, d Deviates, truth Sample) Sample {
	p := o.vms.slot(s)
	*p = truth
	p.Usage = o.noisyResources(truth.Usage, d)
	// RT and SLA are measured at the gateway itself ("we measure the RT
	// on the datacenter domain"), so they carry no monitor distortion.
	p.SLA = clamp01(truth.SLA)
	return *p
}

// ObservePM distorts one PM's true aggregate usage, optionally adding a
// monitor CPU spike, and logs it.
func (o *Observer) ObservePM(tick int, pm model.PMID, trueUsage model.Resources) model.Resources {
	return o.ApplyPM(o.EnsurePM(pm), o.DrawPM(trueUsage), trueUsage)
}

// DrawPM is the serial half of a PM observation: DrawVM's deviates plus
// the monitor-spike draw.
func (o *Observer) DrawPM(trueUsage model.Resources) Deviates {
	d := o.DrawVM(trueUsage)
	if o.stream != nil && o.stream.Bool(o.noise.SpikeProb) {
		d.Spike = o.stream.Uniform(0.3, 1.0)
	}
	return d
}

// ApplyPM is the RNG-free half of a PM observation: it distorts trueUsage
// with the deviates DrawPM drew for it, pushes the result into window slot
// s and returns it.
func (o *Observer) ApplyPM(s int, d Deviates, trueUsage model.Resources) model.Resources {
	obs := o.noisyResources(trueUsage, d)
	if d.Spike != 0 {
		obs.CPUPct += d.Spike * o.noise.SpikeCPUPct
	}
	*o.pms.slot(s) = obs
	return obs
}

// WindowAvgVM returns the mean observed usage of a VM over the window —
// the "resources it has used in the last 10 minutes" input to plain
// Best-Fit. ok is false when no samples exist yet.
func (o *Observer) WindowAvgVM(vm model.VMID) (model.Resources, bool) {
	s, n := o.vmWindow(vm)
	if n == 0 {
		return model.Resources{}, false
	}
	var sum model.Resources
	for k := 0; k < n; k++ {
		sum = sum.Add(o.vms.at(s, k).Usage)
	}
	return sum.Scale(1 / float64(n)), true
}

// WindowMaxVM returns the element-wise max observed usage over the window,
// a more conservative sizing estimate.
func (o *Observer) WindowMaxVM(vm model.VMID) (model.Resources, bool) {
	s, n := o.vmWindow(vm)
	if n == 0 {
		return model.Resources{}, false
	}
	mx := o.vms.at(s, 0).Usage
	for k := 1; k < n; k++ {
		mx = mx.Max(o.vms.at(s, k).Usage)
	}
	return mx, true
}

// WindowAvgLoad returns the window-mean request rate and request-weighted
// per-request characteristics for a VM — the per-round gateway statistics
// a scheduler should size against rather than one noisy tick.
func (o *Observer) WindowAvgLoad(vm model.VMID) (model.Load, bool) {
	s, n := o.vmWindow(vm)
	if n == 0 {
		return model.Load{}, false
	}
	var agg model.Load
	for k := 0; k < n; k++ {
		l := o.vms.at(s, k).Load
		if l.RPS <= 0 {
			continue
		}
		agg.BytesInReq += l.RPS * l.BytesInReq
		agg.BytesOutRq += l.RPS * l.BytesOutRq
		agg.CPUTimeReq += l.RPS * l.CPUTimeReq
		agg.RPS += l.RPS
	}
	if agg.RPS > 0 {
		agg.BytesInReq /= agg.RPS
		agg.BytesOutRq /= agg.RPS
		agg.CPUTimeReq /= agg.RPS
	}
	agg.RPS /= float64(n)
	return agg, true
}

// LastVM returns the most recent sample for a VM.
func (o *Observer) LastVM(vm model.VMID) (Sample, bool) {
	s, n := o.vmWindow(vm)
	if n == 0 {
		return Sample{}, false
	}
	return *o.vms.last(s), true
}

// LastPM returns the most recent observed aggregate usage of a PM.
func (o *Observer) LastPM(pm model.PMID) (model.Resources, bool) {
	s, n := o.pmWindow(pm)
	if n == 0 {
		return model.Resources{}, false
	}
	return *o.pms.last(s), true
}

// WindowAvgPM returns the mean observed aggregate usage of a PM.
func (o *Observer) WindowAvgPM(pm model.PMID) (model.Resources, bool) {
	s, n := o.pmWindow(pm)
	if n == 0 {
		return model.Resources{}, false
	}
	var sum model.Resources
	for k := 0; k < n; k++ {
		sum = sum.Add(*o.pms.at(s, k))
	}
	return sum.Scale(1 / float64(n)), true
}

// vmWindow returns vm's window slot and fill level (0 when untracked).
func (o *Observer) vmWindow(vm model.VMID) (s, n int) {
	i, ok := o.vmSlot[vm]
	if !ok {
		return 0, 0
	}
	return int(i), o.vms.len(int(i))
}

// pmWindow returns pm's window slot and fill level (0 when untracked).
func (o *Observer) pmWindow(pm model.PMID) (s, n int) {
	i, ok := o.pmSlot[pm]
	if !ok {
		return 0, 0
	}
	return int(i), o.pms.len(int(i))
}

// memSD is the noise sigma of memory observations. Memory is metered
// exactly by the hypervisor's accounting, unlike sampled CPU, so it is
// distorted at a fraction of the CPU noise.
func (o *Observer) memSD() float64 { return o.noise.RelSD * 0.3 }

// draws reports whether observing value v with noise sigma sd draws a
// deviate: not without a stream, not for a noiseless field and not for a
// zero value, which stays exactly zero.
func (o *Observer) draws(v, sd float64) bool {
	return o.stream != nil && sd > 0 && v != 0
}

func (o *Observer) deviate(v, sd float64) float64 {
	if !o.draws(v, sd) {
		return 0
	}
	return o.stream.StdNormal()
}

func (o *Observer) noisyResources(r model.Resources, d Deviates) model.Resources {
	return model.Resources{
		CPUPct: o.noisy(r.CPUPct, o.noise.RelSD, d.CPU),
		MemMB:  o.noisy(r.MemMB, o.memSD(), d.Mem),
		BWMbps: o.noisy(r.BWMbps, o.noise.RelSD, d.BW),
	}
}

// noisy distorts v by the log-normal factor of deviate z, with the
// underlying normal's mean -sd²/2 keeping the factor's mean at 1.
func (o *Observer) noisy(v, sd, z float64) float64 {
	if !o.draws(v, sd) {
		return v
	}
	return v * rng.LogNormalAt(-sd*sd/2, sd, z)
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// EWMA is an exponentially weighted moving average, the classic reactive
// forecaster used as a lightweight load predictor.
// The zero value is unusable; construct with NewEWMA.
type EWMA struct {
	alpha float64
	value float64
	init  bool
}

// NewEWMA builds an EWMA with smoothing factor alpha in (0, 1]; larger
// alpha weights recent samples more.
func NewEWMA(alpha float64) (*EWMA, error) {
	if alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("monitor: EWMA alpha %v outside (0,1]", alpha)
	}
	return &EWMA{alpha: alpha}, nil
}

// Add folds a new observation and returns the updated average.
func (e *EWMA) Add(x float64) float64 {
	if !e.init {
		e.value = x
		e.init = true
		return x
	}
	e.value = e.alpha*x + (1-e.alpha)*e.value
	return e.value
}

// Value returns the current smoothed value (0 before any sample).
func (e *EWMA) Value() float64 { return e.value }

package main

import (
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/predict"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// Hyperscale episode shape: the paper's 10-tick rounds, and 20 ticks per
// episode, so each episode runs exactly one round (at tick 10) between
// nineteen plain ticks. Episodes cycle over hyperFleets fleets built from
// seeds derived from the workload seed; the round's cost varies by tens
// of percent from fleet to fleet, so a run reports the mean over several
// fleets of each fleet's median. A fleet's episodes all start from the
// same fresh build, so they do identical work.
const (
	hyperRoundTicks = 10
	hyperTicks      = 20
	hyperFleets     = 4
	// hyperBundleSeed trains the predictor bundle every fleet is
	// scheduled with: the seed BenchmarkScheduleRound trains with, so the
	// model is part of the configuration under test, not of the input.
	hyperBundleSeed = 42
	// hyperPruneK is the per-DC shortlist window BenchmarkScheduleRound
	// uses for the hyperscale round.
	hyperPruneK = 32
)

// fillTimer wraps the scenario's workload and accumulates the busy time
// and call count of Fill. It is safe for concurrent Fill calls.
type fillTimer struct {
	inner sim.Workload
	busy  atomic.Int64 // nanoseconds
	calls atomic.Int64
}

func (f *fillTimer) Fill(tick int, vms []model.VMID, dst []model.LoadVector) {
	t0 := time.Now()
	f.inner.Fill(tick, vms, dst)
	f.busy.Add(int64(time.Since(t0)))
	f.calls.Add(1)
}

// timedSched wraps the Best-Fit scheduler and times each round.
type timedSched struct {
	bf   *sched.BestFit
	last time.Duration
}

func (t *timedSched) Name() string { return t.bf.Name() }

func (t *timedSched) Schedule(p *sched.Problem) (model.Placement, error) {
	t0 := time.Now()
	pl, err := t.bf.Schedule(p)
	t.last = time.Since(t0)
	return pl, err
}

func (t *timedSched) ScheduleInto(p *sched.Problem, pl model.Placement) error {
	t0 := time.Now()
	err := t.bf.ScheduleInto(p, pl)
	t.last = time.Since(t0)
	return err
}

// hyperRun is one built hyperscale episode.
type hyperRun struct {
	sc     *scenario.Scenario
	mgr    *core.Manager
	bf     *sched.BestFit
	ts     *timedSched        // nil when untraced
	fill   *fillTimer         // nil when untraced
	engine *sim.EngineMetrics // nil when untraced
}

// buildHyper builds the hyperscale fleet at home placement with the
// BF+ML shortlist scheduler. Traced builds add the fill timer, the round
// timer and the engine's tick histogram; none of them changes a decision.
func buildHyper(seed uint64, b *predict.Bundle, traced bool) (*hyperRun, error) {
	spec, err := scenario.Preset(scenario.HyperscaleFleet, seed)
	if err != nil {
		return nil, err
	}
	spec.TickWorkers = min(spec.TickWorkers, runtime.GOMAXPROCS(0))
	h := &hyperRun{}
	if traced {
		spec.WrapWorkload = func(w sim.Workload) sim.Workload {
			h.fill = &fillTimer{inner: w}
			return h.fill
		}
	}
	if h.sc, err = scenario.Build(spec); err != nil {
		return nil, err
	}
	if err := h.sc.World.PlaceInitial(h.sc.HomePlacement()); err != nil {
		return nil, err
	}
	h.bf = sched.NewBestFit(sched.NewCostModel(h.sc.Topology, power.Atom{}, sweep.HorizonHours), sched.NewML(b))
	h.bf.Prune, h.bf.PruneK = true, hyperPruneK
	var s sched.Scheduler = h.bf
	if traced {
		h.ts = &timedSched{bf: h.bf}
		s = h.ts
		h.engine = sim.NewEngineMetrics(obs.NewRegistry())
		h.sc.World.SetMetrics(h.engine)
	}
	h.mgr, err = core.NewManager(core.ManagerConfig{World: h.sc.World, Scheduler: s, RoundTicks: hyperRoundTicks})
	return h, err
}

// layers holds per-layer samples keyed by the metric they are the median
// of.
type layers map[string][]float64

func (l layers) add(metric string, v float64) { l[metric] = append(l[metric], v) }

// hyperEpisode is what one hyperscale episode measured.
type hyperEpisode struct {
	fleet      int
	roundMS    float64 // Manager.Step on the round tick
	simMinPerS float64
	lay        layers // traced episodes only
}

// hyperFleet is what the first episode of a fleet pinned for the others.
type hyperFleet struct {
	digest, counters string
	profit, sla      float64
}

func runHyperscale(e *env, o *outcome) error {
	var bundle *predict.Bundle
	setup, err := timeSetup(func(int) error {
		b, err := trainBundle(hyperBundleSeed)
		if err != nil {
			return err
		}
		bundle = b
		_, err = buildHyper(splitmix(e.seed, 0), b, false)
		return err
	})
	if err != nil {
		return err
	}
	o.values["setup_s"] = setup
	if err := e.startClock(); err != nil {
		return err
	}

	fleets := make([]hyperFleet, hyperFleets)
	// Every fleet runs at least once, and once more so its digest can be
	// compared. A traced run alternates traced and untraced episodes, so
	// it runs each fleet twice in a row, once each way: the tracing
	// overhead then compares equal work.
	fleetOf := func(ep int) int { return ep % hyperFleets }
	minEpisodes := hyperFleets + 1
	if e.traced {
		fleetOf = func(ep int) int { return ep / 2 % hyperFleets }
		minEpisodes = 2 * hyperFleets
	}
	all, err := runEpisodes(e, o, minEpisodes, func(ep int, traced bool) (hyperEpisode, error) {
		rec := hyperEpisode{fleet: fleetOf(ep)}
		f := &fleets[rec.fleet]
		h, err := buildHyper(splitmix(e.seed, uint64(rec.fleet)), bundle, traced)
		if err != nil {
			return rec, err
		}
		epStart := time.Now()
		var epID int64
		if traced {
			epID = e.spans.begin("perfbench.hyperscale.episode", 0, epStart)
			rec.lay = layers{}
		}
		var slaSum float64
		var counters string
		for t := 0; t < hyperTicks; t++ {
			var fill0 int64
			var eng0 float64
			if traced {
				fill0, eng0 = h.fill.busy.Load(), h.engine.TickSeconds.Sum()
			}
			t0 := time.Now()
			st, err := h.mgr.Step()
			d := time.Since(t0)
			o.attempted++
			if err != nil {
				o.failed++
				return rec, fmt.Errorf("hyperscale: step %d: %w", t, err)
			}
			slaSum += st.AvgSLA
			round := t > 0 && t%hyperRoundTicks == 0
			if round {
				rec.roundMS = ms(d)
				rs := h.bf.LastRoundStats()
				counters += fmt.Sprintf("r%d:%d/%d/%d/%d;", t, rs.CandidatesScored, rs.ShortlistRebuilds, rs.ShortlistTruncated, rs.RowsRecomputed)
			}
			if traced {
				tracedStep(rec.lay, e.spans, h, epID, round, t0, d, time.Duration(h.fill.busy.Load()-fill0),
					time.Duration((h.engine.TickSeconds.Sum()-eng0)*1e9))
			}
		}
		wall := time.Since(epStart)
		e.spans.end(epID, epStart.Add(wall))
		rec.simMinPerS = hyperTicks / wall.Seconds()
		if traced {
			rec.lay.add("trace.fill_calls_per_tick", float64(h.fill.calls.Load())/hyperTicks)
		}
		dig := placementDigest(h.sc.World.State().Placement())
		if f.digest == "" {
			ledger := h.sc.World.Ledger()
			f.digest, f.counters = dig, counters
			f.profit, f.sla = ledger.AvgProfitPerHour(sim.TickHours), slaSum/hyperTicks
		}
		o.check(dig == f.digest, "hyperscale: episode %d placement digest %s, the fleet's first episode had %s", ep, dig, f.digest)
		o.check(counters == f.counters, "hyperscale: episode %d round counters %s, the fleet's first episode had %s", ep, counters, f.counters)
		return rec, nil
	})
	if err != nil {
		return err
	}

	// Each fleet's median over its calm episodes (all of its episodes if
	// none was calm), averaged over the fleets.
	byFleet := make([][]episode[hyperEpisode], hyperFleets)
	for _, ep := range all {
		byFleet[ep.rec.fleet] = append(byFleet[ep.rec.fleet], ep)
	}
	var roundMS, simRate, profit, sla float64
	for i := range fleets {
		f := &fleets[i]
		o.check(f.profit > 0, "hyperscale: fleet %d profit %.3f EUR/h is not positive", i, f.profit)
		fmt.Fprintf(os.Stderr, "hyperscale: fleet %d placement digest %s, round counters %s\n", i, f.digest, f.counters)
		var rounds, rates []float64
		for _, ep := range calmOf(byFleet[i], 1) {
			rounds = append(rounds, ep.rec.roundMS)
			rates = append(rates, ep.rec.simMinPerS)
		}
		roundMS += median(rounds) / hyperFleets
		simRate += median(rates) / hyperFleets
		profit += f.profit / hyperFleets
		sla += f.sla / hyperFleets
	}
	o.values["sim_min_per_s"] = simRate
	o.values["round_ms_p50"] = roundMS
	o.values["profit_eur_h"] = profit
	o.values["avg_sla"] = sla
	if e.traced {
		var traced []episode[hyperEpisode]
		for _, ep := range all {
			if ep.traced {
				traced = append(traced, ep)
			}
		}
		merged := layers{}
		for _, ep := range calmOf(traced, 1) {
			for metric, xs := range ep.rec.lay {
				merged[metric] = append(merged[metric], xs...)
			}
		}
		for metric, xs := range merged {
			o.values[metric] = median(xs)
		}
	}
	return nil
}

// tracedStep records the spans and layer samples of one traced
// Manager.Step that took d, of which the engine tick took eng and the
// workload fill fill. The engine tick ends the step; on a round tick the
// scheduling round ends where the engine tick starts, and core's own
// share of the step is what neither covers.
func tracedStep(lay layers, spans *spanLog, h *hyperRun, parent int64, round bool, t0 time.Time, d, fill, eng time.Duration) {
	end := t0.Add(d)
	engStart := end.Add(-eng)
	stepID := spans.add("core.Manager.Step", parent, t0, end)
	engID := spans.add("sim.Engine.Step", stepID, engStart, end)
	spans.add("trace.Fill", engID, engStart, engStart.Add(fill))
	lay.add("trace.fill_ms_p50", ms(fill))
	lay.add("sim.step_self_ms_p50", ms(eng-fill))
	if !round {
		return
	}
	rs := h.bf.LastRoundStats()
	sd := h.ts.last
	at := engStart.Add(-sd)
	sID := spans.add("sched.BestFit.ScheduleInto", stepID, at, engStart)
	for _, ph := range []struct {
		name string
		ns   int64
	}{{"sched.fill", rs.FillNS}, {"sched.score", rs.ScoreNS}, {"sched.reduce", rs.ReduceNS}} {
		spans.add(ph.name, sID, at, at.Add(time.Duration(ph.ns)))
		at = at.Add(time.Duration(ph.ns))
	}
	lay.add("sched.round_ms_p50", ms(sd))
	lay.add("sched.fill_ms_p50", float64(rs.FillNS)/1e6)
	lay.add("sched.score_ms_p50", float64(rs.ScoreNS)/1e6)
	lay.add("sched.reduce_ms_p50", float64(rs.ReduceNS)/1e6)
	lay.add("core.round_self_ms_p50", ms(d-sd-eng))
	lay.add("sched.candidates_scored", float64(rs.CandidatesScored))
	lay.add("sched.shortlist_truncated", float64(rs.ShortlistTruncated))
	if rs.CandidatesScored > 0 {
		lay.add("sched.score_ns_per_candidate", float64(rs.ScoreNS)/float64(rs.CandidatesScored))
	}
}

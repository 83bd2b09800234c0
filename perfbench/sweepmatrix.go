package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/par"
	"repro/internal/scenario"
	"repro/internal/sweep"
)

// Sweep-matrix shape: every non-heavy preset under the four production
// policies, over sweepSeeds seeds derived from the workload seed, at the
// CLI's default cell length. bf-ml-prune and bf-ml-par are left out on
// purpose: they are slated to fold into bf-ml.
const (
	sweepTicks = 240
	sweepSeeds = 4
	// sweepMinReps is the fewest reps a run takes: two, so the digests
	// can be compared.
	sweepMinReps = 2
)

var sweepPolicies = []string{"bf-ob", "bf-ml", "bf-ml-delta", "hier-ml"}

// sweepMatrix is the matrix one rep runs.
func sweepMatrix(seed uint64) sweep.Matrix {
	seeds := make([]uint64, sweepSeeds)
	for i := range seeds {
		// Small derived seeds keep sweep.json readable.
		seeds[i] = splitmix(seed, uint64(i)) % 1_000_000
	}
	return sweep.Matrix{
		Scenarios: scenario.Names(),
		Policies:  sweepPolicies,
		Seeds:     seeds,
		Ticks:     sweepTicks,
		Workers:   runtime.GOMAXPROCS(0),
	}
}

// sweepRep is what one rep of the matrix measured.
type sweepRep struct {
	wall                                     float64 // seconds
	roundMS                                  float64 // median over cells of the cell's mean round
	tickMean, roundMean, fillMean, scoreMean float64 // ms, weighted over cells
	busyFrac                                 float64
}

func runSweepMatrix(e *env, o *outcome) error {
	m := sweepMatrix(e.seed)
	var trainSecs []float64
	setup, err := timeSetup(func(int) error {
		// Train every seed's bundle the way sweep.Run does: seeds in
		// parallel over the matrix's workers.
		errs := make([]error, len(m.Seeds))
		secs := make([]float64, len(m.Seeds))
		par.ForEach(len(m.Seeds), m.Workers, func(i int) {
			t0 := time.Now()
			_, errs[i] = trainBundle(m.Seeds[i])
			secs[i] = time.Since(t0).Seconds()
		})
		trainSecs = append(trainSecs, secs...)
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	o.values["setup_s"] = setup
	// sweep.Run takes its bundles from sweep's per-seed cache; fill it now
	// so no rep pays for training.
	for _, s := range m.Seeds {
		if _, err := sweep.TrainedBundle(s); err != nil {
			return err
		}
	}
	if err := e.startClock(); err != nil {
		return err
	}

	var (
		want                    string
		cells                   int
		profit, sla, rowsReused float64
	)
	all, err := runEpisodes(e, o, sweepMinReps, func(rep int, traced bool) (sweepRep, error) {
		t0 := time.Now()
		var id int64
		if traced {
			id = e.spans.begin("sweep.Run", 0, t0)
		}
		res, err := sweep.Run(m)
		wall := time.Since(t0)
		e.spans.end(id, t0.Add(wall))
		cellsWanted := len(m.Scenarios) * len(m.Policies) * len(m.Seeds)
		o.attempted += cellsWanted
		if err != nil {
			o.failed += cellsWanted
			return sweepRep{}, fmt.Errorf("sweep-matrix: rep %d: %w", rep, err)
		}
		js, err := res.JSON()
		if err != nil {
			return sweepRep{}, err
		}
		dig := digest(js)
		if rep == 0 {
			want = dig
			cells = len(res.Cells)
			for i := range res.Cells {
				c := &res.Cells[i]
				profit += c.ProfitEURh
				sla += c.AvgSLA
				rowsReused += float64(c.RowsReused)
			}
			profit /= float64(cells)
			sla /= float64(cells)
		}
		o.check(dig == want, "sweep-matrix: rep %d Result.JSON digest %s, rep 0 had %s", rep, dig, want)
		o.check(len(res.Cells) == cellsWanted, "sweep-matrix: rep %d has %d cells, want %d", rep, len(res.Cells), cellsWanted)

		var ticks, rounds, tickSum, roundSum, fillSum, scoreSum float64
		perCellRound := make([]float64, 0, len(res.Cells))
		for i := range res.Cells {
			c := &res.Cells[i]
			perCellRound = append(perCellRound, c.RoundMS)
			ticks += float64(c.EngineTicks)
			rounds += float64(c.Rounds)
			tickSum += c.TickMS * float64(c.EngineTicks)
			roundSum += c.RoundMS * float64(c.Rounds)
			fillSum += c.FillMS * float64(c.Rounds)
			scoreSum += c.ScoreMS * float64(c.Rounds)
			if traced {
				e.spans.add(fmt.Sprintf("sweep.cell %s/%s/%d", c.Scenario, c.Policy, c.Seed), id,
					t0, t0.Add(time.Duration((c.TickMS*float64(c.EngineTicks)+c.RoundMS*float64(c.Rounds))*1e6)))
			}
		}
		return sweepRep{
			wall:      wall.Seconds(),
			roundMS:   median(perCellRound),
			tickMean:  tickSum / ticks,
			roundMean: roundSum / rounds,
			fillMean:  fillSum / rounds,
			scoreMean: scoreSum / rounds,
			busyFrac:  (tickSum + roundSum) / (float64(m.Workers) * ms(wall)),
		}, nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "sweep-matrix: %d cells, seeds %v, Result.JSON digest %s\n", cells, m.Seeds, want)

	reps := calmOf(all, sweepMinReps)
	col := func(get func(*sweepRep) float64) float64 {
		xs := make([]float64, len(reps))
		for i := range reps {
			xs[i] = get(&reps[i].rec)
		}
		return median(xs)
	}
	wall := col(func(r *sweepRep) float64 { return r.wall })
	o.values["sim_min_per_s"] = float64(cells*sweepTicks) / wall
	o.values["round_ms_p50"] = col(func(r *sweepRep) float64 { return r.roundMS })
	o.values["profit_eur_h"] = profit
	o.values["avg_sla"] = sla
	o.values["cells_per_s"] = float64(cells) / wall
	o.values["predict.train_s"] = median(trainSecs)
	o.values["sweep.tick_ms_mean"] = col(func(r *sweepRep) float64 { return r.tickMean })
	o.values["sweep.round_ms_mean"] = col(func(r *sweepRep) float64 { return r.roundMean })
	o.values["sweep.fill_ms_mean"] = col(func(r *sweepRep) float64 { return r.fillMean })
	o.values["sweep.score_ms_mean"] = col(func(r *sweepRep) float64 { return r.scoreMean })
	o.values["sweep.busy_frac"] = col(func(r *sweepRep) float64 { return r.busyFrac })
	o.values["sched.rows_reused"] = rowsReused
	return nil
}

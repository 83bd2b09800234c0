package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/scenario"
	"repro/internal/serve"
)

// Serve-churn shape. The service runs the serve-base fleet in virtual
// time: the client sends each tick's events, waits for every 202, then
// sends the tick barrier. The generator keeps each tick's events under
// the intake queue bound and the modelled live dynamic VMs under the
// preset's extra slots, so a 429 or a slot-starved deferral is a
// regression of the service, not of the load.
const (
	serveTicks      = 600
	serveQueueDepth = 64 // the service default
	serveSlots      = 64 // serve-base ExtraVMSlots
	// serveLiveCap bounds the modelled live dynamic VMs, with headroom
	// under serveSlots for admissions deferred past the model's slack.
	serveLiveCap = 40
	// serveDeferSlack pads each modelled lifetime for admission waits.
	serveDeferSlack = 10
	serveCheckpoint = 100 // ticks between checkpoints
	serveStaticVMs  = 4   // serve-base's static population
	serveRoundTicks = 10
	// serveMinEpisodes is the fewest episodes a run takes: two, so the
	// digests can be compared.
	serveMinEpisodes = 2
	// serveSenders is the number of keep-alive senders: at most the two
	// cores this benchmark is sized for, so the client never outnumbers
	// the server's cores.
	serveSenders = 2
)

// tickPlan is one tick of the serve-churn script.
type tickPlan struct {
	events []serve.Event
	// read names an offer of an earlier tick whose placement status one
	// sender reads while the other writes ("" = no read this tick).
	read   string
	health bool // the second sender also reads /healthz
}

// servePlan is a full serve-churn script.
type servePlan struct {
	ticks  []tickPlan
	offers int
	events int
	// maxLive is the peak modelled count of live dynamic VMs.
	maxLive int
}

// genServe builds the script of a seed: up to three offers a tick (mixed
// classes, round-robin home DCs, finite lifetimes), two to six telemetry
// reports for recent offers, and a host crash every 97 ticks repaired 15
// ticks later.
// Every event carries an explicit Seq so the tick batch orders the same
// whatever the senders' interleaving.
func genServe(seed uint64, ticks int) *servePlan {
	r := rand.New(rand.NewPCG(seed, 0x5e27e))
	classes := []string{"file-hosting", "image-gallery", "dynamic-web"}
	p := &servePlan{ticks: make([]tickPlan, ticks)}
	var seq int64
	type life struct{ from, to int }
	var lives []life
	var recent []string // offers of earlier ticks, newest last
	crashed := -1
	for t := 0; t < ticks; t++ {
		tp := &p.ticks[t]
		live := 0
		for _, l := range lives {
			if l.from <= t && t < l.to {
				live++
			}
		}
		want := []int{0, 1, 1, 2, 2, 3}[r.IntN(6)]
		for k := 0; k < want && live < serveLiveCap; k++ {
			lt := 10 + r.IntN(21)
			name := fmt.Sprintf("vm-%d", p.offers)
			seq++
			tp.events = append(tp.events, serve.Event{Seq: seq, Kind: serve.KindOffer, Offer: &serve.OfferReq{
				Name:          name,
				Class:         classes[r.IntN(len(classes))],
				HomeDC:        p.offers % 4,
				LifetimeTicks: lt,
			}})
			lives = append(lives, life{t, t + lt + serveDeferSlack})
			live++
			p.offers++
		}
		p.maxLive = max(p.maxLive, live)
		for k := 2 + r.IntN(5); k > 0 && len(recent) > 0; k-- {
			name := recent[len(recent)-1-r.IntN(min(len(recent), 20))]
			seq++
			tp.events = append(tp.events, serve.Event{Seq: seq, Kind: serve.KindTelemetry, Telemetry: &serve.TelemetryReq{
				Name: name, RPS: 10 + 30*r.Float64(),
			}})
		}
		switch {
		case t%97 == 50:
			crashed = r.IntN(8)
			seq++
			tp.events = append(tp.events, serve.Event{Seq: seq, Kind: serve.KindFault, Fault: &serve.FaultEventReq{Kind: "crash", PM: crashed}})
		case t%97 == 65 && crashed >= 0:
			seq++
			tp.events = append(tp.events, serve.Event{Seq: seq, Kind: serve.KindFault, Fault: &serve.FaultEventReq{Kind: "repair", PM: crashed}})
			crashed = -1
		}
		if len(recent) > 0 {
			tp.read = recent[len(recent)-1-r.IntN(min(len(recent), 30))]
		}
		tp.health = t%5 == 2
		for _, ev := range tp.events {
			if ev.Kind == serve.KindOffer {
				recent = append(recent, ev.Offer.Name)
			}
		}
		p.events += len(tp.events)
	}
	return p
}

// serveSamples is what one serve-churn episode measured and pinned.
type serveSamples struct {
	ackMS, tickMS, roundTickMS, readMS, placeMS []float64
	growth, restoreS, simMinPerS, offersPerS    float64
	rejected429                                 float64
	rulings, deferrals                          int
	bytesPerEvent                               float64
	maxDynamic                                  int
	digest                                      string
	profit, sla                                 float64
}

func runServeChurn(e *env, o *outcome) error {
	plan := genServe(e.seed, serveTicks)
	o.check(plan.maxLive <= serveLiveCap, "serve-churn: script models %d live VMs, cap %d", plan.maxLive, serveLiveCap)
	var bundle *predict.Bundle
	setup, err := timeSetup(func(rep int) error {
		b, err := trainBundle(e.seed)
		if err != nil {
			return err
		}
		bundle = b
		dir := filepath.Join(e.work, fmt.Sprintf("setup-%d", rep))
		srv, err := startServe(serveConfig(e.seed, dir, b, false))
		if err != nil {
			return err
		}
		return srv.close()
	})
	if err != nil {
		return err
	}
	o.values["setup_s"] = setup
	if err := e.startClock(); err != nil {
		return err
	}

	var first serveSamples
	all, err := runEpisodes(e, o, serveMinEpisodes, func(ep int, traced bool) (serveSamples, error) {
		r, err := serveEpisode(e, o, plan, bundle, ep, traced)
		if err != nil {
			return r, err
		}
		if ep == 0 {
			first = r
		}
		o.check(r.digest == first.digest, "serve-churn: episode %d placement-log digest %s, episode 0 had %s", ep, r.digest, first.digest)
		o.check(r.profit == first.profit && r.sla == first.sla, "serve-churn: episode %d economics differ from episode 0", ep)
		o.check(r.rejected429 == 0, "serve-churn: episode %d: %v events refused with 429", ep, r.rejected429)
		o.check(r.maxDynamic <= serveSlots, "serve-churn: episode %d: %d live dynamic VMs exceed %d slots", ep, r.maxDynamic, serveSlots)
		return r, nil
	})
	if err != nil {
		return err
	}
	o.check(first.profit > 0, "serve-churn: profit %.4f EUR/h is not positive", first.profit)
	fmt.Fprintf(os.Stderr, "serve-churn: %d offers, %d events, placement-log digest %s, peak live dynamic VMs %d\n",
		plan.offers, plan.events, first.digest, first.maxDynamic)

	var smp serveSamples
	var growth, restoreS, simMinPerS, offersPerS []float64
	for _, ep := range calmOf(all, serveMinEpisodes) {
		r := &ep.rec
		smp.ackMS = append(smp.ackMS, r.ackMS...)
		smp.tickMS = append(smp.tickMS, r.tickMS...)
		smp.roundTickMS = append(smp.roundTickMS, r.roundTickMS...)
		smp.readMS = append(smp.readMS, r.readMS...)
		smp.placeMS = append(smp.placeMS, r.placeMS...)
		growth = append(growth, r.growth)
		restoreS = append(restoreS, r.restoreS)
		simMinPerS = append(simMinPerS, r.simMinPerS)
		offersPerS = append(offersPerS, r.offersPerS)
		smp.rejected429 += r.rejected429
		smp.rulings += r.rulings
		smp.deferrals += r.deferrals
	}
	place := tailPct(smp.placeMS, 99)
	ack := tailPct(smp.ackMS, 99)
	tick := tailPct(smp.tickMS, 99)
	read := tailPct(smp.readMS, 99)
	o.values["sim_min_per_s"] = median(simMinPerS)
	o.values["round_ms_p50"] = median(smp.roundTickMS)
	o.values["profit_eur_h"] = first.profit
	o.values["avg_sla"] = first.sla
	o.values["offers_per_s"] = median(offersPerS)
	o.values["place_ms_p50"] = median(smp.placeMS)
	o.values["place_ms_p99"] = place.Value
	o.values["place_ms_pct"] = place.Pct
	o.values["place_ms_samples"] = float64(place.Samples)
	o.values["restore_s"] = median(restoreS)
	o.values["serve.ack_ms_p50"] = median(smp.ackMS)
	o.values["serve.ack_ms_p99"] = ack.Value
	o.values["serve.tick_ms_p50"] = median(smp.tickMS)
	o.values["serve.tick_ms_p99"] = tick.Value
	o.values["serve.tick_growth"] = median(growth)
	o.values["serve.read_ms_p99"] = read.Value
	o.values["serve.journal_bytes_per_event"] = first.bytesPerEvent
	o.values["serve.rejected_429"] = smp.rejected429
	o.values["lifecycle.deferral_frac"] = float64(smp.deferrals) / float64(max(smp.rulings, 1))
	return nil
}

// serveConfig is the service configuration of every episode: serve-base
// in virtual time, journal and periodic checkpoints in dir, the trained
// bundle on (admission gate and calibration), one tick worker.
func serveConfig(seed uint64, dir string, b *predict.Bundle, restore bool) serve.Config {
	return serve.Config{
		Scenario:        scenario.ServeBase,
		Seed:            seed,
		QueueDepth:      serveQueueDepth,
		RoundTicks:      serveRoundTicks,
		TickWorkers:     1,
		Dir:             dir,
		Restore:         restore,
		CheckpointEvery: serveCheckpoint,
		Bundle:          b,
	}
}

// liveServer is a service behind a loopback HTTP listener with a
// keep-alive client.
type liveServer struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error
	tr     *http.Transport
	hc     *http.Client
	cl     *serve.Client
}

func startServe(cfg serve.Config) (*liveServer, error) {
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background()) //nolint:errcheck // already failing
		return nil, err
	}
	ls := &liveServer{srv: srv, hs: &http.Server{Handler: srv.Handler()}, served: make(chan error, 1)}
	go func() { ls.served <- ls.hs.Serve(ln) }()
	ls.tr = &http.Transport{MaxIdleConnsPerHost: serveSenders, DisableCompression: true}
	ls.hc = &http.Client{Transport: ls.tr, Timeout: 30 * time.Second}
	// One retry only: the script never fills the queue, so a 429 is a
	// regression to count (from /metrics), not load to absorb.
	ls.cl = &serve.Client{Base: "http://" + ln.Addr().String(), HTTP: ls.hc, MaxRetries: 1, RetryDelay: time.Millisecond}
	return ls, nil
}

// close drains the engine, stops the listener and waits for it.
func (ls *liveServer) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := ls.srv.Shutdown(ctx)
	if cerr := ls.hs.Close(); err == nil {
		err = cerr
	}
	if serr := <-ls.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	ls.tr.CloseIdleConnections()
	return err
}

// get issues one GET and reports its status.
func (ls *liveServer) get(path string) (int, error) {
	resp, err := ls.hc.Get(ls.cl.Base + path)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, err
}

// rejected429 scrapes the service's 429 counter from /metrics.
func (ls *liveServer) rejected429() (float64, error) {
	resp, err := ls.hc.Get(ls.cl.Base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	fams, err := obs.ParseText(resp.Body)
	if err != nil {
		return 0, err
	}
	for i := range fams {
		if fams[i].Name == "mdcsim_serve_rejected_429_total" {
			v, _ := fams[i].Value()
			return v, nil
		}
	}
	return 0, errors.New("serve-churn: /metrics has no 429 counter")
}

// pendingOffer is an offer not yet seen placed.
type pendingOffer struct {
	name string
	sent time.Time
}

// serveEpisode runs the script once against a fresh service, then
// restores the journal into another fresh service.
func serveEpisode(e *env, o *outcome, plan *servePlan, b *predict.Bundle, ep int, traced bool) (serveSamples, error) {
	var smp serveSamples
	var spans *spanLog
	if traced {
		spans = e.spans
	}
	dir := filepath.Join(e.work, fmt.Sprintf("episode-%d", ep))
	defer os.RemoveAll(dir)
	cfg := serveConfig(e.seed, dir, b, false)
	t0 := time.Now()
	epID := spans.begin("perfbench.serve.episode", 0, t0)
	ls, err := startServe(cfg)
	if err != nil {
		return smp, err
	}
	spans.add("serve.New", epID, t0, time.Now())

	type sent struct {
		d    time.Duration
		err  error
		read bool
	}
	results := make([][]sent, serveSenders)
	var pending []pendingOffer
	var slaSum float64
	driveStart := time.Now()
	for t, tp := range plan.ticks {
		tickStart := time.Now()
		tickID := spans.begin("perfbench.serve.tick", epID, tickStart)
		sendAt := make([]time.Time, len(tp.events))
		var wg sync.WaitGroup
		for w := 0; w < serveSenders; w++ {
			results[w] = results[w][:0]
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for j := w; j < len(tp.events); j += serveSenders {
					at := time.Now()
					err := ls.cl.Send(tp.events[j])
					d := time.Since(at)
					sendAt[j] = at
					results[w] = append(results[w], sent{d: d, err: err})
					spans.add("serve.Client.Send "+tp.events[j].Kind, tickID, at, at.Add(d))
				}
				var path, name string
				switch {
				case w == 0 && tp.read != "":
					path, name = "/v1/placements?name="+url.QueryEscape(tp.read), "serve.GET /v1/placements"
				case w == 1 && tp.health:
					path, name = "/healthz", "serve.GET /healthz"
				default:
					return
				}
				at := time.Now()
				code, err := ls.get(path)
				d := time.Since(at)
				if err == nil && code != http.StatusOK {
					err = fmt.Errorf("GET %s: status %d", path, code)
				}
				results[w] = append(results[w], sent{d: d, err: err, read: true})
				spans.add(name, tickID, at, at.Add(d))
			}(w)
		}
		wg.Wait()
		for w := range results {
			for _, s := range results[w] {
				o.attempted++
				if s.err != nil {
					o.failed++
					o.problems = append(o.problems, fmt.Sprintf("serve-churn: tick %d: %v", t, s.err))
					continue
				}
				if s.read {
					smp.readMS = append(smp.readMS, ms(s.d))
				} else {
					smp.ackMS = append(smp.ackMS, ms(s.d))
				}
			}
		}
		for j, ev := range tp.events {
			if ev.Kind == serve.KindOffer {
				pending = append(pending, pendingOffer{ev.Offer.Name, sendAt[j]})
			}
		}

		bt := time.Now()
		_, err := ls.cl.Tick(1)
		bd := time.Since(bt)
		spans.add("serve.Client.Tick", tickID, bt, bt.Add(bd))
		o.attempted++
		if err != nil {
			o.failed++
			ls.close() //nolint:errcheck // already failing
			return smp, fmt.Errorf("serve-churn: tick %d barrier: %w", t, err)
		}
		smp.tickMS = append(smp.tickMS, ms(bd))
		if t > 0 && t%serveRoundTicks == 0 {
			smp.roundTickMS = append(smp.roundTickMS, ms(bd))
		}

		st := time.Now()
		snap := ls.srv.Snapshot()
		keep := pending[:0]
		for _, p := range pending {
			switch snap.VMs[p.name].Status {
			case serve.StatusPlaced:
				smp.placeMS = append(smp.placeMS, ms(st.Sub(p.sent)))
			case serve.StatusRejected, serve.StatusDeparted:
			default:
				keep = append(keep, p)
			}
		}
		pending = keep
		spans.add("serve.Server.Snapshot", tickID, st, time.Now())
		spans.end(tickID, time.Now())
		slaSum += snap.AvgSLA
		smp.maxDynamic = max(smp.maxDynamic, snap.ActiveVMs-serveStaticVMs)
	}
	drive := time.Since(driveStart).Seconds()
	smp.growth = growth(smp.tickMS)
	smp.simMinPerS = float64(len(plan.ticks)) / drive

	pre := ls.srv.Snapshot()
	ch := pre.Churn
	smp.offersPerS = float64(ch.Admitted+ch.Rejected) / drive
	smp.rulings = ch.Admitted + ch.Rejected + ch.Deferrals
	smp.deferrals = ch.Deferrals
	smp.bytesPerEvent = float64(pre.JournalBytes) / float64(plan.events)
	o.check(ch.Offered == plan.offers, "serve-churn: %d offers sent, service counted %d", plan.offers, ch.Offered)
	o.check(ch.Offered == ch.Admitted+ch.Rejected+pre.PendingDeferred,
		"serve-churn: offered %d != admitted %d + rejected %d + pending %d", ch.Offered, ch.Admitted, ch.Rejected, pre.PendingDeferred)
	n429, err := ls.rejected429()
	if err != nil {
		ls.close() //nolint:errcheck // already failing
		return smp, err
	}
	smp.rejected429 = n429

	sd := time.Now()
	if err := ls.close(); err != nil {
		return smp, fmt.Errorf("serve-churn: shutdown: %w", err)
	}
	spans.add("serve.Server.Shutdown", epID, sd, time.Now())
	final := ls.srv.Snapshot()
	o.check(final.Churn.Offered == final.Churn.Admitted+final.Churn.Rejected && final.PendingDeferred == 0,
		"serve-churn: after drain offered %d != admitted %d + rejected %d (pending %d)",
		final.Churn.Offered, final.Churn.Admitted, final.Churn.Rejected, final.PendingDeferred)
	o.check(final.Err == "", "serve-churn: engine error %q", final.Err)

	rt := time.Now()
	rs, err := serve.New(serveConfig(e.seed, dir, b, true))
	if err != nil {
		return smp, fmt.Errorf("serve-churn: restore: %w", err)
	}
	rd := time.Since(rt)
	spans.add("serve.New restore", epID, rt, rt.Add(rd))
	smp.restoreS = rd.Seconds()
	restored := rs.Snapshot()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := rs.Shutdown(ctx); err != nil {
		return smp, fmt.Errorf("serve-churn: restored shutdown: %w", err)
	}
	o.check(restored.LogDigest == final.LogDigest && restored.LogLines == final.LogLines,
		"serve-churn: restore reproduced log %s (%d lines), live run had %s (%d lines)",
		restored.LogDigest, restored.LogLines, final.LogDigest, final.LogLines)
	spans.end(epID, time.Now())

	smp.digest = final.LogDigest
	smp.profit = pre.ProfitEUR / (float64(len(plan.ticks)) / 60)
	smp.sla = slaSum / float64(len(plan.ticks))
	return smp, nil
}

package main

import (
	"encoding/json"
	"testing"

	"repro/internal/serve"
)

// TestGenServeBounds checks the serve-churn generator's per-tick bounds:
// every tick's events fit the intake queue (so a 429 can only be a
// service regression), the modelled live dynamic VMs stay under the
// preset's extra slots, events carry increasing Seqs, and reads target
// offers of earlier ticks.
func TestGenServeBounds(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 4242, 1 << 40} {
		p := genServe(seed, serveTicks)
		if p.maxLive > serveLiveCap || serveLiveCap >= serveSlots {
			t.Fatalf("seed %d: modelled live VMs %d, cap %d, slots %d", seed, p.maxLive, serveLiveCap, serveSlots)
		}
		if p.offers < serveTicks {
			t.Fatalf("seed %d: only %d offers in %d ticks", seed, p.offers, serveTicks)
		}
		offered := map[string]int{}
		var last int64
		for tick, tp := range p.ticks {
			// One tick barrier's intake must leave the queue room to spare.
			if len(tp.events) >= serveQueueDepth {
				t.Fatalf("seed %d tick %d: %d events, queue depth %d", seed, tick, len(tp.events), serveQueueDepth)
			}
			for _, ev := range tp.events {
				if ev.Seq <= last {
					t.Fatalf("seed %d tick %d: seq %d after %d", seed, tick, ev.Seq, last)
				}
				last = ev.Seq
				if err := ev.Validate(4, 8); err != nil {
					t.Fatalf("seed %d tick %d: invalid event: %v", seed, tick, err)
				}
				switch ev.Kind {
				case serve.KindOffer:
					if _, dup := offered[ev.Offer.Name]; dup {
						t.Fatalf("seed %d: duplicate offer %s", seed, ev.Offer.Name)
					}
					if ev.Offer.LifetimeTicks <= 0 {
						t.Fatalf("seed %d: offer %s never departs", seed, ev.Offer.Name)
					}
					offered[ev.Offer.Name] = tick
				case serve.KindTelemetry:
					if at, ok := offered[ev.Telemetry.Name]; !ok || at >= tick {
						t.Fatalf("seed %d tick %d: telemetry for %s offered at %d", seed, tick, ev.Telemetry.Name, at)
					}
				}
			}
			if tp.read != "" {
				if at, ok := offered[tp.read]; !ok || at >= tick {
					t.Fatalf("seed %d tick %d: read of %s offered at %d", seed, tick, tp.read, at)
				}
			}
		}
	}
}

// TestGenServeDeterministic checks a seed always yields the same script
// and different seeds different ones.
func TestGenServeDeterministic(t *testing.T) {
	enc := func(seed uint64) string {
		p := genServe(seed, 200)
		var evs [][]serve.Event
		for _, tp := range p.ticks {
			evs = append(evs, tp.events)
		}
		b, err := json.Marshal(evs)
		if err != nil {
			t.Fatal(err)
		}
		return digest(b)
	}
	if enc(9) != enc(9) {
		t.Fatal("the same seed gave two scripts")
	}
	if enc(9) == enc(10) {
		t.Fatal("two seeds gave the same script")
	}
}

package network

import (
	"reflect"
	"testing"
	"time"
)

// FuzzLossyPlan drives the channel model with arbitrary fleet sizes,
// rates, windows, and seeds: it must never panic, the underlying Plan's
// latency/availableAt/Ready must stay in-range (including probes far
// outside the slot list), and the delivered set must be a pure function
// of the seed.
func FuzzLossyPlan(f *testing.F) {
	f.Add(4, 0.2, 0.1, 3, 0.2, 2, int64(7), int64(3))
	f.Add(0, 0.0, 0.0, 0, 0.0, 0, int64(0), int64(0))
	f.Add(1, 1.0, 1.0, 8, 1.0, 8, int64(-1), int64(-5))
	f.Add(32, 0.5, -0.3, -2, 2.0, 100, int64(1<<40), int64(1<<40))
	f.Fuzz(func(t *testing.T, fleet int, drop, burst float64, blen int, reorder float64, rwin int, seed, round int64) {
		if fleet < 0 {
			fleet = -fleet
		}
		fleet %= 64
		m := LossModel{
			DropRate: drop, BurstRate: burst, BurstLen: blen,
			ReorderRate: reorder, ReorderWindow: rwin, Seed: seed,
		}
		s := Scheduler{Channel: DefaultDSRC(), RateHz: 10, ExtraDelay: 5 * time.Millisecond}
		p := fleetPlan(s, fleet, 12000)

		lp := m.Round(round, p)
		again := m.Round(round, p)
		if !reflect.DeepEqual(lp.Dropped, again.Dropped) || !reflect.DeepEqual(lp.DeliveredAt, again.DeliveredAt) {
			t.Fatal("delivered set not deterministic per seed")
		}
		if len(lp.Dropped) != len(p.Slots) || len(lp.DeliveredAt) != len(p.Slots) {
			t.Fatalf("fate vectors sized %d/%d for %d slots", len(lp.Dropped), len(lp.DeliveredAt), len(p.Slots))
		}

		ready := p.Ready()
		completion := p.Completion()
		if ready < completion {
			t.Fatalf("Ready %v < Completion %v", ready, completion)
		}
		for k := -2; k < len(p.Slots)+2; k++ {
			lat := p.latency(k)
			av := p.availableAt(k)
			inRange := k >= 0 && k < len(p.Slots)
			if !inRange {
				if lat != 0 || av != 0 {
					t.Fatalf("out-of-range k=%d: Latency %v AvailableAt %v, want 0", k, lat, av)
				}
				if lp.Delivered(k) {
					t.Fatalf("out-of-range k=%d reported delivered", k)
				}
				if _, ok := lp.AvailableAt(k); ok {
					t.Fatalf("out-of-range k=%d reported available", k)
				}
				continue
			}
			if lat < 0 || lat > completion {
				t.Fatalf("Latency(%d) = %v out of [0, %v]", k, lat, completion)
			}
			if av < lat || av > ready {
				t.Fatalf("AvailableAt(%d) = %v out of [%v, %v]", k, av, lat, ready)
			}
			at, ok := lp.AvailableAt(k)
			if ok != lp.Delivered(k) {
				t.Fatalf("slot %d: AvailableAt ok=%v vs Delivered=%v", k, ok, lp.Delivered(k))
			}
			if ok && at < ready {
				t.Fatalf("slot %d delivered at %v before round Ready %v", k, at, ready)
			}
		}
		if n := lp.DeliveredCount(); n < 0 || n > len(p.Slots) {
			t.Fatalf("DeliveredCount %d out of range", n)
		}
	})
}

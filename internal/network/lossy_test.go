package network

import (
	"math"
	"reflect"
	"testing"
	"time"
)

func lossyTestPlan(n int) Plan {
	s := Scheduler{Channel: DefaultDSRC(), RateHz: 10, ExtraDelay: 5 * time.Millisecond}
	return fleetPlan(s, n, 12000)
}

func TestLossModelZeroValueIsLossless(t *testing.T) {
	var m LossModel
	if m.Enabled() {
		t.Fatal("zero-value model reports Enabled")
	}
	p := lossyTestPlan(4)
	lp := m.Round(0, p)
	for k := range p.Slots {
		if !lp.Delivered(k) {
			t.Fatalf("slot %d dropped by lossless model", k)
		}
		at, ok := lp.AvailableAt(k)
		if !ok || at != p.Ready() {
			t.Fatalf("slot %d available at %v, want Ready %v", k, at, p.Ready())
		}
	}
	if lp.DeliveredCount() != len(p.Slots) {
		t.Fatalf("DeliveredCount = %d, want %d", lp.DeliveredCount(), len(p.Slots))
	}
}

func TestLossModelRoundDeterministic(t *testing.T) {
	m := DefaultLoss(0.3, 42)
	p := lossyTestPlan(6)
	for round := int64(0); round < 8; round++ {
		a := m.Round(round, p)
		b := m.Round(round, p)
		if !reflect.DeepEqual(a.Dropped, b.Dropped) || !reflect.DeepEqual(a.DeliveredAt, b.DeliveredAt) {
			t.Fatalf("round %d not reproducible", round)
		}
	}
}

func TestLossModelSeedsDiffer(t *testing.T) {
	p := lossyTestPlan(8)
	a := DefaultLoss(0.4, 1)
	b := DefaultLoss(0.4, 2)
	same := true
	for round := int64(0); round < 16 && same; round++ {
		if !reflect.DeepEqual(a.Round(round, p).Dropped, b.Round(round, p).Dropped) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical drop patterns over 16 rounds")
	}
}

func TestLossModelRatesBracketed(t *testing.T) {
	p := lossyTestPlan(4)
	all := LossModel{DropRate: 1, Seed: 3}
	none := LossModel{DropRate: 0, Seed: 3}
	for round := int64(0); round < 4; round++ {
		if got := all.Round(round, p).DeliveredCount(); got != 0 {
			t.Fatalf("DropRate 1 delivered %d slots", got)
		}
		if got := none.Round(round, p).DeliveredCount(); got != len(p.Slots) {
			t.Fatalf("DropRate 0 delivered %d slots, want %d", got, len(p.Slots))
		}
	}
}

func TestLossModelJunkRatesAreClean(t *testing.T) {
	p := lossyTestPlan(3)
	for _, m := range []LossModel{
		{DropRate: math.NaN(), BurstRate: math.NaN(), BurstLen: 2, ReorderRate: math.NaN(), ReorderWindow: 2, Seed: 9},
		{DropRate: -1, BurstRate: -0.5, BurstLen: 3, ReorderRate: -2, ReorderWindow: 1, Seed: 9},
	} {
		lp := m.Round(0, p)
		if lp.DeliveredCount() != len(p.Slots) {
			t.Fatalf("junk-rate model %+v dropped slots", m)
		}
		for k := range p.Slots {
			if at, ok := lp.AvailableAt(k); !ok || at != p.Ready() {
				t.Fatalf("junk-rate model %+v perturbed slot %d", m, k)
			}
		}
	}
}

func TestLossModelReorderBounded(t *testing.T) {
	m := LossModel{ReorderRate: 1, ReorderWindow: 3, Seed: 11}
	p := lossyTestPlan(5)
	saw := false
	for round := int64(0); round < 4; round++ {
		lp := m.Round(round, p)
		for k, sl := range p.Slots {
			at, ok := lp.AvailableAt(k)
			if !ok {
				t.Fatalf("reorder-only model dropped slot %d", k)
			}
			slot := sl.End - sl.Start
			min := p.Ready() + slot
			max := p.Ready() + 3*slot
			if at < min || at > max {
				t.Fatalf("round %d slot %d delivered at %v, want within [%v, %v]", round, k, at, min, max)
			}
			if at > p.Ready() {
				saw = true
			}
		}
	}
	if !saw {
		t.Fatal("ReorderRate 1 never reordered")
	}
}

func TestLossModelBurstsWipeRuns(t *testing.T) {
	// Burst-only model: every loss must be part of a run of BurstLen
	// consecutive dropped slots (runs may merge or hit round edges).
	m := LossModel{BurstRate: 0.05, BurstLen: 3, Seed: 5}
	p := lossyTestPlan(8)
	var fates []bool
	for round := int64(0); round < 64; round++ {
		lp := m.Round(round, p)
		fates = append(fates, lp.Dropped...)
	}
	drops, runs, run := 0, 0, 0
	for _, d := range fates {
		if d {
			drops++
			run++
			continue
		}
		if run > 0 {
			runs++
			if run < m.BurstLen {
				// A shorter run can only happen at the very start of the
				// sequence, where a pre-history burst is cut off.
			}
			run = 0
		}
	}
	if drops == 0 {
		t.Fatal("burst model never dropped over 512 slots")
	}
	if runs > 0 && drops/runs < 2 {
		t.Fatalf("burst drops not clustered: %d drops in %d runs", drops, runs)
	}
}

func TestDropPublishDeterministicAndSenderIndependent(t *testing.T) {
	m := DefaultLoss(0.25, 17)
	for seq := uint64(1); seq <= 64; seq++ {
		if m.DropPublish("veh2", seq) != m.DropPublish("veh2", seq) {
			t.Fatalf("DropPublish not reproducible at seq %d", seq)
		}
	}
	// Different senders see independent streams: over 256 seqs the two
	// fate vectors must differ somewhere.
	same := true
	for seq := uint64(1); seq <= 256 && same; seq++ {
		if m.DropPublish("veh1", seq) != m.DropPublish("veh2", seq) {
			same = false
		}
	}
	if same {
		t.Fatal("two senders shared one drop stream over 256 publishes")
	}
	if (LossModel{}).DropPublish("veh1", 1) {
		t.Fatal("zero-value model dropped a publish")
	}
}

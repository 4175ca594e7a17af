package network

import (
	"testing"
	"time"
)

// TestFleetPlanEdgeCases: fleets of zero or one vehicle have nobody to
// exchange with and must yield zero channel load and zero latency — not
// a degenerate one-slot schedule.
func TestFleetPlanEdgeCases(t *testing.T) {
	s := DefaultScheduler()
	for _, n := range []int{0, 1} {
		p := fleetPlan(s, n, 200_000)
		if p.Senders() != 0 {
			t.Errorf("fleet %d: %d senders, want 0", n, p.Senders())
		}
		if p.TotalBytes() != 0 {
			t.Errorf("fleet %d: %d bytes, want 0", n, p.TotalBytes())
		}
		if p.BytesPerSecond() != 0 || p.MbitPerSecond() != 0 {
			t.Errorf("fleet %d: nonzero channel load %f B/s", n, p.BytesPerSecond())
		}
		if p.Utilization() != 0 {
			t.Errorf("fleet %d: utilization %f, want 0", n, p.Utilization())
		}
		if p.Completion() != 0 {
			t.Errorf("fleet %d: completion %v, want 0", n, p.Completion())
		}
		if !p.Fits() {
			t.Errorf("fleet %d: zero load must fit the channel", n)
		}
	}
}

// TestPlanEmptyFrames: an explicit empty frame list equals the empty
// round, and the zero-value Plan reports zero everything without
// dividing by a zero-capacity channel.
func TestPlanEmptyFrames(t *testing.T) {
	p := DefaultScheduler().Plan(nil)
	if p.Senders() != 0 || p.Completion() != 0 || p.BytesPerSecond() != 0 {
		t.Errorf("empty plan not empty: %+v", p)
	}
	var zero Plan
	if zero.Utilization() != 0 || zero.Completion() != 0 || zero.TotalBytes() != 0 {
		t.Errorf("zero-value plan degenerate: util %f", zero.Utilization())
	}
}

// TestPlanIndexBounds: Latency and AvailableAt must answer 0 for any
// index outside the plan instead of panicking — callers probe rounds
// whose sender count they did not produce (an empty round, a degenerate
// fleet, a stale frame index).
func TestPlanIndexBounds(t *testing.T) {
	s := DefaultScheduler()
	s.ExtraDelay = 100 * time.Millisecond
	full := s.Plan([]int{100_000, 50_000})
	empty := s.Plan(nil)
	var zero Plan

	cases := []struct {
		name string
		plan Plan
		k    int
		want time.Duration
	}{
		{"negative index", full, -1, 0},
		{"past the end", full, 2, 0},
		{"far past the end", full, 1 << 20, 0},
		{"empty plan", empty, 0, 0},
		{"empty plan negative", empty, -1, 0},
		{"zero-value plan", zero, 0, 0},
		{"zero-value plan negative", zero, -5, 0},
		{"in range", full, 1, full.Slots[1].End},
	}
	for _, tc := range cases {
		if got := tc.plan.latency(tc.k); got != tc.want {
			t.Errorf("%s: Latency(%d) = %v, want %v", tc.name, tc.k, got, tc.want)
		}
		wantAvail := tc.want
		if tc.want != 0 {
			wantAvail += s.ExtraDelay
		}
		if got := tc.plan.availableAt(tc.k); got != wantAvail {
			t.Errorf("%s: AvailableAt(%d) = %v, want %v", tc.name, tc.k, got, wantAvail)
		}
	}
}

// TestPlanSerializesSenders: K frames occupy the channel back to back;
// each slot starts where the previous ended and the round completes at
// the last slot's end.
func TestPlanSerializesSenders(t *testing.T) {
	s := DefaultScheduler()
	frames := []int{100_000, 200_000, 50_000}
	p := s.Plan(frames)
	if p.Senders() != len(frames) {
		t.Fatalf("senders = %d, want %d", p.Senders(), len(frames))
	}
	var prevEnd time.Duration
	var sum time.Duration
	for k, sl := range p.Slots {
		if sl.Sender != k {
			t.Errorf("slot %d: sender %d", k, sl.Sender)
		}
		if sl.Start != prevEnd {
			t.Errorf("slot %d starts at %v, want %v (no gap, no overlap)", k, sl.Start, prevEnd)
		}
		want := s.Channel.TransmitTime(frames[k])
		if got := sl.End - sl.Start; got != want {
			t.Errorf("slot %d duration %v, want %v", k, got, want)
		}
		if p.latency(k) != sl.End {
			t.Errorf("latency(%d) = %v, want slot end %v", k, p.latency(k), sl.End)
		}
		prevEnd = sl.End
		sum += want
	}
	if p.Completion() != sum {
		t.Errorf("completion %v, want serialized sum %v", p.Completion(), sum)
	}
	if got, want := p.TotalBytes(), 350_000; got != want {
		t.Errorf("total bytes %d, want %d", got, want)
	}
}

// TestFleetPlanLoadScalesWithFleet: channel load grows linearly with
// fleet size, and a large enough fleet saturates the 6 Mbit/s channel.
func TestFleetPlanLoadScalesWithFleet(t *testing.T) {
	s := DefaultScheduler()
	const frame = 200_000 // ≈ the paper's compressed scan size
	p2 := fleetPlan(s, 2, frame)
	p4 := fleetPlan(s, 4, frame)
	if got, want := p4.TotalBytes(), 2*p2.TotalBytes(); got != want {
		t.Errorf("4-fleet round %d bytes, want double the 2-fleet %d", got, want)
	}
	if !p2.Fits() {
		t.Errorf("two-vehicle exchange must fit DSRC (util %.0f%%)", 100*p2.Utilization())
	}
	// 200 KB × 1 Hz = 1.6 Mbit/s per vehicle; 4 vehicles exceed the
	// 6 Mbit/s channel's 4.8 Mbit/s effective throughput.
	if p4.Fits() {
		t.Errorf("four-vehicle full-frame exchange should saturate DSRC (util %.0f%%)", 100*p4.Utilization())
	}
	if p4.Completion() <= p2.Completion() {
		t.Errorf("larger fleet must complete later: %v vs %v", p4.Completion(), p2.Completion())
	}
}

// TestPlanExtraDelay: the extra delivery delay shifts availability and
// readiness without consuming channel time, and the empty round stays
// instantly "ready" — nothing was sent.
func TestPlanExtraDelay(t *testing.T) {
	s := DefaultScheduler()
	s.ExtraDelay = 250 * time.Millisecond
	p := s.Plan([]int{100_000, 150_000})
	if p.Ready() != p.Completion()+s.ExtraDelay {
		t.Errorf("Ready = %v, want completion %v + %v", p.Ready(), p.Completion(), s.ExtraDelay)
	}
	for k := range p.Slots {
		if p.availableAt(k) != p.Slots[k].End+s.ExtraDelay {
			t.Errorf("slot %d: AvailableAt = %v, want %v + %v", k, p.availableAt(k), p.Slots[k].End, s.ExtraDelay)
		}
	}
	// The delay must not inflate channel-occupancy accounting.
	base := DefaultScheduler().Plan([]int{100_000, 150_000})
	if p.Completion() != base.Completion() || p.Utilization() != base.Utilization() {
		t.Error("extra delay leaked into channel occupancy")
	}
	if empty := s.Plan(nil); empty.Ready() != 0 {
		t.Errorf("empty round Ready = %v, want 0", empty.Ready())
	}
	if empty := fleetPlan(s, 1, 100_000); empty.Ready() != 0 {
		t.Errorf("one-vehicle fleet Ready = %v, want 0", empty.Ready())
	}
}

// fleetPlan schedules a round for a fleet of n vehicles in which every
// vehicle broadcasts one frame of the given size to the others. Fleets
// of zero or one vehicle exchange nothing and yield the empty plan.
func fleetPlan(s Scheduler, n, frameBytes int) Plan {
	if n < 2 {
		return Plan{channel: s.Channel, rateHz: s.RateHz, extra: s.ExtraDelay}
	}
	frames := make([]int, n)
	for i := range frames {
		frames[i] = frameBytes
	}
	return s.Plan(frames)
}

// latency returns the freshness delay of the k-th sender's frame: how
// long after the round starts the receiver holds it. An out-of-range k —
// including any k against the empty or zero-value plan — is no sender at
// all and yields zero delay, mirroring Completion's empty-round rule.
func (p Plan) latency(k int) time.Duration {
	if k < 0 || k >= len(p.Slots) {
		return 0
	}
	return p.Slots[k].End
}

// availableAt returns when the k-th sender's frame is usable by a
// receiver: its slot completion plus the scheduler's extra delivery
// delay. Out-of-range k yields zero, like latency.
func (p Plan) availableAt(k int) time.Duration {
	if k < 0 || k >= len(p.Slots) {
		return 0
	}
	return p.Slots[k].End + p.extra
}

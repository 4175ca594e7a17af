package network

import "time"

// Scheduler models K senders contending for one shared DSRC channel —
// the broadcast regime an N-vehicle cooperative fleet creates. 802.11p
// CSMA/CA serializes overlapping broadcasts, so a round in which every
// sender transmits one frame occupies the channel for the sum of the
// individual transmit times; the receiver's freshness delay for a given
// frame is the time until that frame's slot completes.
type Scheduler struct {
	// Channel is the shared service channel.
	Channel DSRCChannel
	// RateHz is the per-sender frame exchange rate (the paper argues
	// 1 Hz suffices).
	RateHz float64
	// ExtraDelay is a fixed per-round delivery delay beyond channel
	// occupancy — propagation, queuing and decode time between a frame
	// clearing the air and a receiver being able to fuse it. It shifts
	// Plan.Ready and every slot's delivery without consuming channel
	// capacity.
	ExtraDelay time.Duration
}

// DefaultScheduler returns a 1 Hz scheduler on the default 6 Mbit/s
// service channel.
func DefaultScheduler() Scheduler {
	return Scheduler{Channel: DefaultDSRC(), RateHz: 1}
}

// Slot is one sender's turn on the channel within a broadcast round.
type Slot struct {
	// Sender indexes the frame list handed to Plan.
	Sender int
	// Start and End bound the slot relative to the round start.
	Start, End time.Duration
	// Bytes is the frame size transmitted in the slot.
	Bytes int
}

// Plan is one scheduled broadcast round: every sender's frame
// serialized onto the shared channel. The zero value is the empty round
// (no senders, zero load).
type Plan struct {
	// Slots lists each sender's turn, in transmission order.
	Slots []Slot

	channel DSRCChannel
	rateHz  float64
	extra   time.Duration
}

// Plan schedules one broadcast round for the given frames, one per
// sender, in order. An empty frame list — zero vehicles, or a single
// vehicle with nobody to talk to — yields the empty plan: no slots and
// zero channel load, not a degenerate schedule.
func (s Scheduler) Plan(frameBytes []int) Plan {
	p := Plan{channel: s.Channel, rateHz: s.RateHz, extra: s.ExtraDelay}
	var t time.Duration
	for k, b := range frameBytes {
		d := s.Channel.TransmitTime(b)
		p.Slots = append(p.Slots, Slot{Sender: k, Start: t, End: t + d, Bytes: b})
		t += d
	}
	return p
}

// Senders returns the number of senders in the round.
func (p Plan) Senders() int { return len(p.Slots) }

// TotalBytes returns the data volume of one round.
func (p Plan) TotalBytes() int {
	total := 0
	for _, sl := range p.Slots {
		total += sl.Bytes
	}
	return total
}

// Completion returns when the round's last frame clears the channel —
// the latency until the receiver holds every sender's cloud. Zero for
// the empty round.
func (p Plan) Completion() time.Duration {
	if len(p.Slots) == 0 {
		return 0
	}
	return p.Slots[len(p.Slots)-1].End
}

// Ready returns when every frame of the round is usable — the round's
// channel completion plus the extra delivery delay. Zero for the empty
// round: nothing was sent, so there is nothing to wait for.
func (p Plan) Ready() time.Duration {
	if len(p.Slots) == 0 {
		return 0
	}
	return p.Completion() + p.extra
}

// BytesPerSecond returns the sustained channel load of repeating the
// round at the scheduler's rate. Zero for the empty round.
func (p Plan) BytesPerSecond() float64 {
	return p.rateHz * float64(p.TotalBytes())
}

// MbitPerSecond returns the sustained load in Mbit/s.
func (p Plan) MbitPerSecond() float64 { return p.BytesPerSecond() * 8 / 1e6 }

// Utilization returns the fraction of channel capacity the sustained
// load consumes. An empty round utilizes nothing.
func (p Plan) Utilization() float64 {
	load := p.BytesPerSecond()
	if load == 0 {
		return 0
	}
	return p.channel.Utilization(load)
}

// Fits reports whether the sustained load fits the channel — the N-way
// generalization of the paper's two-vehicle DSRC feasibility check.
func (p Plan) Fits() bool {
	return p.channel.CanSustain(p.BytesPerSecond())
}

package network

// ExchangeSchedule models the periodic cooperative exchange between two
// vehicles (§IV-G): each participating direction transmits one frame
// every 1/Rate seconds. The paper argues 1 Hz suffices — a recipient
// usually only needs a single frame from a different view perspective,
// and higher rates merely congest the channel.
type ExchangeSchedule struct {
	// RateHz is the per-direction frame exchange rate.
	RateHz float64
	// FrameBytes is the payload size of each transmitted frame.
	FrameBytes int
	// Directions is how many one-way transfers the exchange involves
	// (2 for mutual categories, 1 for lead-view sharing).
	Directions int
}

// BytesPerSecond returns the aggregate channel load of the schedule.
func (s ExchangeSchedule) BytesPerSecond() float64 {
	return s.RateHz * float64(s.FrameBytes*s.Directions)
}

// MbitPerSecond returns the load in Mbit/s — Fig. 12's y axis.
func (s ExchangeSchedule) MbitPerSecond() float64 {
	return s.BytesPerSecond() * 8 / 1e6
}

// VolumeSeries returns the cumulative volume transmitted in each of the
// first n whole seconds, in Mbit — the Fig. 12 time series.
func (s ExchangeSchedule) VolumeSeries(n int) []float64 {
	out := make([]float64, n)
	perSecond := s.MbitPerSecond()
	for i := range out {
		out[i] = perSecond
	}
	return out
}

// FitsChannel reports whether the schedule's sustained load fits the
// channel.
func (s ExchangeSchedule) FitsChannel(c DSRCChannel) bool {
	return c.CanSustain(s.BytesPerSecond())
}

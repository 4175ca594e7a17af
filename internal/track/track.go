// Package track maintains object tracks over fused detection streams:
// greedy BEV-IoU data association plus constant-velocity Kalman
// smoothing of each track's ground-plane motion. It is the temporal
// layer on top of Cooper's per-frame cooperative detections — the fused
// view only becomes a drivable world model once detections persist
// across frames — and it is latency-aware: every Step carries a
// timestamp, tracks are extrapolated to the incoming frame's time before
// association, and Predict exposes the same extrapolation so a consumer
// can read the fleet's state at any query time.
//
// A Tracker is deterministic: association order, tie-breaks and every
// filter operation are fixed, so identical detection streams yield
// identical track IDs byte for byte.
package track

import (
	"sort"
	"time"

	"cooper/internal/geom"
	"cooper/internal/spod"
)

// Config parameterises a Tracker.
type Config struct {
	// MatchIoU is the minimum BEV IoU at which a detection may join an
	// existing track.
	MatchIoU float64
	// MatchDist is the centre-distance gate (metres) for the fallback
	// association pass: a detection with no IoU overlap may still join
	// the nearest track within this distance. Without it, a newborn
	// track (velocity still unknown) loses any object that moves more
	// than its own length between frames — exactly the low-frame-rate
	// regime the episode sweeps probe.
	MatchDist float64
	// MaxMisses is how many consecutive unmatched frames a track
	// survives before it is dropped.
	MaxMisses int
	// ProcessNoise is the white-acceleration variance of the constant-
	// velocity model, (m/s²)².
	ProcessNoise float64
	// MeasurementNoise is the position measurement variance, m².
	MeasurementNoise float64
	// InitialVelVar is the velocity variance of a newborn track, (m/s)².
	InitialVelVar float64
}

// DefaultConfig returns tracking parameters tuned for car-sized objects
// observed at cooperative frame rates (1–10 Hz).
func DefaultConfig() Config {
	return Config{
		MatchIoU:         0.1,
		MatchDist:        6.0,
		MaxMisses:        3,
		ProcessNoise:     4.0,
		MeasurementNoise: 0.25,
		InitialVelVar:    25.0,
	}
}

// Track is one tracked object.
type Track struct {
	// ID is the track's stable identity, assigned at birth and never
	// reused within a Tracker.
	ID int
	// Box is the smoothed box at the track's last update time: filtered
	// center, the last matched detection's extents and yaw.
	Box geom.Box
	// Vel is the filtered ground-plane velocity, m/s.
	Vel geom.Vec3
	// Hits counts matched frames; Misses counts consecutive unmatched
	// frames since the last match.
	Hits, Misses int

	kx, ky  kalman1D
	updated time.Duration
}

// Tracker associates per-frame detections into tracks.
type Tracker struct {
	cfg    Config
	tracks []*Track
	nextID int
	last   time.Duration
	primed bool
}

// New returns a Tracker. Zero config fields fall back to DefaultConfig.
func New(cfg Config) *Tracker {
	def := DefaultConfig()
	if cfg.MatchIoU <= 0 {
		cfg.MatchIoU = def.MatchIoU
	}
	if cfg.MatchDist <= 0 {
		cfg.MatchDist = def.MatchDist
	}
	if cfg.MaxMisses <= 0 {
		cfg.MaxMisses = def.MaxMisses
	}
	if cfg.ProcessNoise <= 0 {
		cfg.ProcessNoise = def.ProcessNoise
	}
	if cfg.MeasurementNoise <= 0 {
		cfg.MeasurementNoise = def.MeasurementNoise
	}
	if cfg.InitialVelVar <= 0 {
		cfg.InitialVelVar = def.InitialVelVar
	}
	return &Tracker{cfg: cfg, nextID: 1}
}

// Tracks returns the live tracks, oldest first.
func (tr *Tracker) Tracks() []*Track { return tr.tracks }

// Step advances the tracker to time now with one frame of detections and
// returns, per detection, the track ID it was assigned to (new tracks
// are born for unmatched detections, so every detection gets an ID).
// Frames must arrive in non-decreasing time order.
func (tr *Tracker) Step(now time.Duration, dets []spod.Detection) []int {
	dt := 0.0
	if tr.primed && now > tr.last {
		dt = (now - tr.last).Seconds()
	}
	tr.last = now
	tr.primed = true

	// Predict every live track to the frame time.
	for _, t := range tr.tracks {
		t.kx.predict(dt, tr.cfg.ProcessNoise)
		t.ky.predict(dt, tr.cfg.ProcessNoise)
		t.Box.Center = geom.V3(t.kx.p, t.ky.p, t.Box.Center.Z)
		t.updated = now
	}

	// Greedy association between predicted track boxes and detections:
	// overlap candidates rank by descending IoU; detections with no
	// overlap may still claim the nearest track inside the distance
	// gate, ranked after every overlap pair by ascending distance. Ties
	// break on track order then detection index, so the assignment is a
	// pure function of the inputs.
	type pair struct {
		iou  float64
		dist float64
		t, d int
	}
	var pairs []pair
	for ti, t := range tr.tracks {
		for di := range dets {
			if iou := geom.IoUBEV(t.Box, dets[di].Box); iou >= tr.cfg.MatchIoU {
				pairs = append(pairs, pair{iou: iou, t: ti, d: di})
			} else if d := t.Box.Center.DistXY(dets[di].Box.Center); d <= tr.cfg.MatchDist {
				pairs = append(pairs, pair{dist: d, t: ti, d: di})
			}
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		a, b := pairs[i], pairs[j]
		if (a.iou > 0) != (b.iou > 0) {
			return a.iou > 0
		}
		if a.iou != b.iou {
			return a.iou > b.iou
		}
		if a.dist != b.dist {
			return a.dist < b.dist
		}
		if a.t != b.t {
			return a.t < b.t
		}
		return a.d < b.d
	})

	trackOf := make([]int, len(dets))
	for i := range trackOf {
		trackOf[i] = -1
	}
	usedTrack := make([]bool, len(tr.tracks))
	usedDet := make([]bool, len(dets))
	for _, p := range pairs {
		if usedTrack[p.t] || usedDet[p.d] {
			continue
		}
		usedTrack[p.t] = true
		usedDet[p.d] = true
		t := tr.tracks[p.t]
		d := dets[p.d]
		t.kx.update(d.Box.Center.X, tr.cfg.MeasurementNoise)
		t.ky.update(d.Box.Center.Y, tr.cfg.MeasurementNoise)
		t.Box = d.Box
		t.Box.Center = geom.V3(t.kx.p, t.ky.p, d.Box.Center.Z)
		t.Vel = geom.V3(t.kx.v, t.ky.v, 0)
		t.Hits++
		t.Misses = 0
		trackOf[p.d] = t.ID
	}

	// Unmatched tracks age; the ones past MaxMisses die.
	alive := tr.tracks[:0]
	for ti, t := range tr.tracks {
		if !usedTrack[ti] {
			t.Misses++
		}
		if t.Misses <= tr.cfg.MaxMisses {
			alive = append(alive, t)
		}
	}
	tr.tracks = alive

	// Unmatched detections are born as new tracks, in detection order.
	for di := range dets {
		if usedDet[di] {
			continue
		}
		d := dets[di]
		t := &Track{
			ID:      tr.nextID,
			Box:     d.Box,
			Hits:    1,
			kx:      newKalman1D(d.Box.Center.X, tr.cfg.MeasurementNoise, tr.cfg.InitialVelVar),
			ky:      newKalman1D(d.Box.Center.Y, tr.cfg.MeasurementNoise, tr.cfg.InitialVelVar),
			updated: now,
		}
		tr.nextID++
		tr.tracks = append(tr.tracks, t)
		trackOf[di] = t.ID
	}
	return trackOf
}

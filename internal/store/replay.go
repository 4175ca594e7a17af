package store

import (
	"bytes"
	"fmt"

	"cooper/internal/fusion"
	"cooper/internal/spod"
)

// ReplayStats summarises a replay verification: how many rounds were
// recomputed and how many reproduced their recorded detections byte for
// byte.
type ReplayStats struct {
	// Rounds is the number of rounds replayed through the fusion path.
	Rounds int
	// Matched counts rounds whose recomputed detections encode to
	// exactly the recorded bytes.
	Matched int
	// Mismatched lists the (frame, receiver) keys that diverged.
	Mismatched []string
	// MissingDetections counts rounds with no recorded detection set to
	// compare against (a truncated log).
	MissingDetections int
}

// Identical reports a fully verified replay: every round had a recorded
// detection set and every recomputation reproduced it exactly.
func (s ReplayStats) Identical() bool {
	return s.Rounds > 0 && s.Matched == s.Rounds && s.MissingDetections == 0
}

// String renders the stats for reports.
func (s ReplayStats) String() string {
	return fmt.Sprintf("replayed %d rounds: %d byte-identical, %d diverged, %d without recorded detections",
		s.Rounds, s.Matched, len(s.Mismatched), s.MissingDetections)
}

// replayBackend rebuilds the fusion strategy a log was produced with.
func replayBackend(h Header) (fusion.Backend, error) {
	b, err := fusion.ParseBackend(h.Backend)
	if err != nil {
		return nil, err
	}
	if raw, ok := b.(fusion.RawBackend); ok {
		raw.UseICP = h.UseICP
		return raw, nil
	}
	return b, nil
}

// detectorFor rebuilds the receiver's detector configuration from the
// round's stored scalars, exactly as every in-tree producer constructs
// it: the defaults plus the scenario's vertical FOV and area range.
func detectorFor(r Round) spod.Config {
	cfg := spod.DefaultConfig()
	if r.FOVTop != 0 {
		cfg.VerticalFOVTop = r.FOVTop
	}
	if r.MaxRange != 0 {
		cfg.MaxDetectionRange = r.MaxRange
	}
	return cfg
}

// Detect runs the round's fusion step: Backend.Fuse over the stored
// payloads plus the recorded MaxDist override, then the cooperative
// detector. A warm-up round runs the single-shot detector on Own and
// returns a nil fused input. Live producers build their Round first and
// detect through this method, so replaying a stored round runs the very
// function that produced its detections: a divergence means the fusion
// path changed, not the replayer.
func (r Round) Detect(backend fusion.Backend, s *spod.DetectorScratch) ([]spod.Detection, *fusion.FusedInput, error) {
	cfg := detectorFor(r)
	if r.Warmup {
		dets, _ := spod.New(cfg).Detect(r.Own, nil, s)
		return dets, nil, nil
	}
	payloads := make([]fusion.Payload, len(r.Payloads))
	for i, p := range r.Payloads {
		payloads[i] = fusion.Payload{SenderID: p.Sender, State: p.State, Data: p.Data}
	}
	in, err := backend.Fuse(fusion.SensorFrame{State: r.State, Cloud: r.Own}, payloads)
	if err != nil {
		return nil, nil, fmt.Errorf("store: frame %d receiver %s: %w", r.Frame, r.Receiver, err)
	}
	if r.OverrideMaxDist {
		in.MaxDist = r.MaxDist
	}
	dets, _ := in.Detect(cfg, s)
	return dets, in, nil
}

// ReplayEpisode recomputes every round of a decoded episode and
// verifies each against its recorded detections by comparing encoded
// bytes. The returned detection sets are in round order, so callers can
// also diff them against an independent live run.
func ReplayEpisode(ep *Episode) ([]Detections, ReplayStats, error) {
	backend, err := replayBackend(ep.Header)
	if err != nil {
		return nil, ReplayStats{}, err
	}
	recorded := make(map[string][]byte, len(ep.Detections))
	for _, d := range ep.Detections {
		recorded[detKey(d.Frame, d.Receiver)] = EncodeDetections(d)
	}
	scratch := spod.NewScratch()
	var stats ReplayStats
	out := make([]Detections, 0, len(ep.Rounds))
	for _, r := range ep.Rounds {
		dets, _, err := r.Detect(backend, scratch)
		if err != nil {
			return nil, stats, err
		}
		d := Detections{Frame: r.Frame, Receiver: r.Receiver, Dets: dets}
		out = append(out, d)
		stats.Rounds++
		key := detKey(r.Frame, r.Receiver)
		want, ok := recorded[key]
		switch {
		case !ok:
			stats.MissingDetections++
		case bytes.Equal(EncodeDetections(d), want):
			stats.Matched++
		default:
			stats.Mismatched = append(stats.Mismatched, key)
		}
	}
	return out, stats, nil
}

// ReplayFile decodes the log at path and replays it.
func ReplayFile(path string) ([]Detections, ReplayStats, error) {
	ep, err := ReadEpisodeFile(path)
	if err != nil {
		return nil, ReplayStats{}, err
	}
	return ReplayEpisode(ep)
}

func detKey(frame int, receiver string) string {
	return fmt.Sprintf("%d/%s", frame, receiver)
}

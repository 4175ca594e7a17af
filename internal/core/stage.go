package core

import (
	"fmt"

	"cooper/internal/fusion"
	"cooper/internal/scene"
	"cooper/internal/spod"
	"cooper/internal/store"
)

// FusedFrame is one receiver's frame through the receiver stage: the
// round it detected on, what it detected, both columns scored against
// ground truth, and the detections mapped into the world frame for the
// track layer.
type FusedFrame struct {
	// Round is the fusion round exactly as Round.Detect consumed it.
	Round store.Round
	// Dets are the fused detections (the single shot on a warm-up round).
	Dets []spod.Detection
	// Single scores the receiver's single shot over its own area; Coop
	// scores Dets over the participants' union area, and Assoc is Coop's
	// truth correspondence.
	Single, Coop TruthStats
	Assoc        TruthAssoc
	// WorldDets are Dets in the world frame of the receiver's true pose.
	WorldDets []spod.Detection
	// ICP holds the fused input's ICP correction residuals, metres.
	ICP []float64
}

// DetectFrame is the receiver stage every harness runs per frame: it
// scores the single shot, detects through round.Detect — the function
// replay runs — scores that over the participants' union area (receiver
// plus the senders whose clouds could be fused) and maps the result into
// the world frame. A warm-up round keeps singles as its detections and
// scores them once for both columns. snap is the scenario at the frame's
// timestamp and recv the receiver's pose index in it.
func DetectFrame(snap *scene.Scenario, recv int, participants []int, singles []spod.Detection, round store.Round, backend fusion.Backend, s *spod.DetectorScratch) (FusedFrame, error) {
	ff := FusedFrame{Round: round, Dets: singles}
	if round.Warmup {
		ff.Assoc = EvaluateDetectionsAssoc(snap, recv, nil, singles)
		ff.Single, ff.Coop = ff.Assoc.Stats, ff.Assoc.Stats
	} else {
		ff.Single = EvaluateDetections(snap, recv, nil, singles)
		dets, in, err := round.Detect(backend, s)
		if err != nil {
			return FusedFrame{}, fmt.Errorf("core: %w", err)
		}
		ff.Dets, ff.ICP = dets, in.ICPCorrections
		ff.Assoc = EvaluateDetectionsAssoc(snap, recv, participants, dets)
		ff.Coop = ff.Assoc.Stats
	}
	ff.WorldDets = WorldDetections(ff.Dets, snap.Poses[recv], snap.LiDAR.MountHeight)
	return ff, nil
}

package core

import (
	"math"

	"cooper/internal/eval"
	"cooper/internal/fusion"
	"cooper/internal/geom"
	"cooper/internal/lidar"
	"cooper/internal/scene"
	"cooper/internal/spod"
)

// TruthStats scores one detection set against scenario ground truth.
type TruthStats struct {
	// TP and FN partition the in-area ground-truth cars; FP counts
	// detections matching no in-area car.
	TP, FN, FP int
}

// Precision returns TP / (TP + FP); 0 with no detections at all.
func (s TruthStats) Precision() float64 {
	return eval.Precision(s.TP, s.FP)
}

// Recall returns TP / (TP + FN); 0 with no in-area ground truth.
func (s TruthStats) Recall() float64 {
	if s.TP+s.FN == 0 {
		return 0
	}
	return float64(s.TP) / float64(s.TP+s.FN)
}

// InArea reports whether a car lies inside the detection area of the
// given scenario pose: within the dataset's LiDAR range and, when the
// scenario evaluates a front field of view, inside that wedge.
func InArea(sc *scene.Scenario, car scene.Object, poseIdx int) bool {
	pose := sc.Poses[poseIdx]
	dist := car.Box.Center.DistXY(pose.T)
	if dist > AreaRange(sc.Dataset) {
		return false
	}
	if sc.FrontFOV > 0 {
		rel := pose.Inverse().Apply(car.Box.Center)
		az := math.Atan2(rel.Y, rel.X)
		if math.Abs(az) > sc.FrontFOV/2 {
			return false
		}
	}
	return true
}

// TruthAssoc is EvaluateDetectionsAssoc's full answer: the aggregate
// stats plus the per-truth correspondence the tracking metrics need.
type TruthAssoc struct {
	Stats TruthStats
	// TruthIDs lists the in-area ground-truth car IDs, in scene order;
	// DetOf gives, index-aligned, the matched detection index or -1.
	TruthIDs []int
	DetOf    []int
}

// EvaluateDetections scores detections made in the receiver pose's sensor
// frame against the scenario's ground-truth cars, restricted to the union
// of the participants' detection areas — the cooperative detection area a
// hub fusion round covers. Participants should include the receiver
// itself plus every sender whose cloud was fused; an empty participant
// list scores the receiver's single-shot area.
func EvaluateDetections(sc *scene.Scenario, receiver int, participants []int, dets []spod.Detection) TruthStats {
	return EvaluateDetectionsAssoc(sc, receiver, participants, dets).Stats
}

// EvaluateDetectionsAssoc is EvaluateDetections, additionally reporting
// which truth car each detection claimed — the per-frame correspondence
// that, joined with the tracker's detection → track assignment, yields
// the episode's truth → track association.
func EvaluateDetectionsAssoc(sc *scene.Scenario, receiver int, participants []int, dets []spod.Detection) TruthAssoc {
	if len(participants) == 0 {
		participants = []int{receiver}
	}
	tr := lidarSensorTransform(sc, receiver)
	cars := sc.Scene.Cars()
	var out TruthAssoc
	var boxes []geom.Box
	for _, car := range cars {
		in := false
		for _, p := range participants {
			if InArea(sc, car, p) {
				in = true
				break
			}
		}
		if in {
			out.TruthIDs = append(out.TruthIDs, car.ID)
			boxes = append(boxes, car.Box.Transformed(tr))
		}
	}
	assignment, fps := eval.Match(boxes, dets, eval.DefaultMatchIoU)
	out.DetOf = assignment
	out.Stats = TruthStats{FP: len(fps)}
	for _, a := range assignment {
		if a >= 0 {
			out.Stats.TP++
		} else {
			out.Stats.FN++
		}
	}
	return out
}

// Cell is the Fig. 3/6 matrix cell of one car: the matched detection's
// score, a miss for an unmatched in-area car, or out of area for a car
// this association did not score. dets is the slice the association
// was computed on.
func (a TruthAssoc) Cell(carID int, dets []spod.Detection) eval.Cell {
	for ti, id := range a.TruthIDs {
		if id != carID {
			continue
		}
		if d := a.DetOf[ti]; d >= 0 {
			return eval.Score(dets[d].Score)
		}
		return eval.Miss()
	}
	return eval.OutOfArea()
}

// FrameAssoc joins the truth ↔ detection assignment with a tracker's
// per-detection track IDs (as returned by track.Tracker.Step for the
// same detection slice) into the per-frame association eval.Temporal
// consumes.
func (a TruthAssoc) FrameAssoc(trackIDs []int) eval.FrameAssoc {
	fa := eval.FrameAssoc{Present: a.TruthIDs, TrackOf: make(map[int]int)}
	for ti, truthID := range a.TruthIDs {
		if d := a.DetOf[ti]; d >= 0 && d < len(trackIDs) {
			fa.TrackOf[truthID] = trackIDs[d]
		}
	}
	return fa
}

// WorldDetections maps sensor-frame detections into the world frame of
// the observing pose. Tracking happens in world coordinates — the
// receiver moves between frames, so cross-frame association needs a
// frame that does not.
func WorldDetections(dets []spod.Detection, pose geom.Transform, mountHeight float64) []spod.Detection {
	toWorld := lidar.SensorTransform(pose, mountHeight).Inverse()
	out := make([]spod.Detection, len(dets))
	for i, d := range dets {
		d.Box = d.Box.Transformed(toWorld)
		out[i] = d
	}
	return out
}

// lidarSensorTransform is the world→sensor transform of a scenario pose.
func lidarSensorTransform(sc *scene.Scenario, poseIdx int) geom.Transform {
	return lidar.SensorTransform(sc.Poses[poseIdx], sc.LiDAR.MountHeight)
}

// PoseState builds the GPS/IMU state a vehicle at the given world pose
// reports, its LiDAR mounted mountHeight above the ground.
func PoseState(pose geom.Transform, mountHeight float64) fusion.VehicleState {
	return fusion.VehicleState{
		GPS:         pose.T,
		Yaw:         pose.R.Yaw(),
		Pitch:       pose.R.Pitch(),
		Roll:        pose.R.Roll(),
		MountHeight: mountHeight,
	}
}

// DriftedState is st as reported at frame k of a localization-error walk
// (scene.Scenario.DriftWalks): the planar position and yaw carry that
// frame's error; true poses, and so sensing and ground truth, stay
// untouched. A nil walk (no drift) returns st unchanged.
func DriftedState(st fusion.VehicleState, walk []scene.PoseError, k int) fusion.VehicleState {
	if walk != nil {
		e := walk[k]
		st.GPS.X += e.X
		st.GPS.Y += e.Y
		st.Yaw += e.Yaw
	}
	return st
}

// PoseVehicle builds the vehicle embodying a scenario pose, seeded and
// range-configured exactly as the evaluation runner builds it, so
// networked nodes and in-process evaluation sense identical clouds.
func PoseVehicle(sc *scene.Scenario, poseIdx int) *Vehicle {
	return PoseVehicleSeeded(sc, poseIdx, sc.SensingSeed(poseIdx, 0))
}

// PoseVehicleSeeded is PoseVehicle with an explicit sensing seed.
// Streaming episodes use it to give each (pose, frame) capture its own
// noise stream while keeping everything else identical to the runner's
// vehicles.
func PoseVehicleSeeded(sc *scene.Scenario, poseIdx int, seed int64) *Vehicle {
	v := NewVehicle(sc.PoseLabels[poseIdx], sc.LiDAR, PoseState(sc.Poses[poseIdx], sc.LiDAR.MountHeight), seed)
	v.SetDetector(spod.New(scenarioDetectorConfig(sc)))
	return v
}

// scenarioDetectorConfig is the detector configuration of every vehicle
// a scenario pose embodies: the defaults plus the sensor's vertical FOV
// and the dataset's detection area.
func scenarioDetectorConfig(sc *scene.Scenario) spod.Config {
	cfg := spod.DefaultConfig()
	cfg.VerticalFOVTop = sc.LiDAR.MaxElevation()
	cfg.MaxDetectionRange = AreaRange(sc.Dataset)
	return cfg
}

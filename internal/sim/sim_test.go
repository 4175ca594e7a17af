package sim

import (
	"math"
	"testing"
	"time"

	"cooper/internal/geom"
)

func TestTrajectoryInterpolation(t *testing.T) {
	tr := NewTrajectory(10, geom.V3(0, 0, 0), geom.V3(100, 0, 0))
	pose := tr.At(5 * time.Second)
	if !pose.T.AlmostEqual(geom.V3(50, 0, 0), 1e-9) {
		t.Errorf("midpoint = %v", pose.T)
	}
	if yaw := pose.R.Yaw(); math.Abs(yaw) > 1e-12 {
		t.Errorf("heading = %v", yaw)
	}
}

func TestTrajectoryTurns(t *testing.T) {
	tr := NewTrajectory(10, geom.V3(0, 0, 0), geom.V3(100, 0, 0), geom.V3(100, 100, 0))
	pose := tr.At(15 * time.Second) // 150 m in: 50 m up the second leg
	if !pose.T.AlmostEqual(geom.V3(100, 50, 0), 1e-9) {
		t.Errorf("position = %v", pose.T)
	}
	if yaw := pose.R.Yaw(); math.Abs(yaw-math.Pi/2) > 1e-12 {
		t.Errorf("heading = %v, want π/2", yaw)
	}
}

func TestTrajectoryClampsToEnd(t *testing.T) {
	tr := NewTrajectory(10, geom.V3(0, 0, 0), geom.V3(10, 0, 0))
	pose := tr.At(time.Hour)
	if !pose.T.AlmostEqual(geom.V3(10, 0, 0), 1e-9) {
		t.Errorf("end position = %v", pose.T)
	}
}

func TestTrajectoryDegenerate(t *testing.T) {
	if got := NewTrajectory(10).At(time.Second); !got.AlmostEqual(geom.IdentityTransform(), 1e-12) {
		t.Error("empty trajectory should be identity")
	}
	single := NewTrajectory(10, geom.V3(5, 5, 0))
	if got := single.At(time.Second); !got.T.AlmostEqual(geom.V3(5, 5, 0), 1e-12) {
		t.Error("single-waypoint trajectory should hold position")
	}
}

// TestTrajectoryHoldsHeadingPastEnd: a finished trajectory parks at the
// final waypoint keeping the last segment's heading — it must not snap
// back to yaw 0 (a teleporting heading for any path that ends off-axis).
func TestTrajectoryHoldsHeadingPastEnd(t *testing.T) {
	tr := NewTrajectory(10, geom.V3(0, 0, 0), geom.V3(10, 0, 0), geom.V3(10, 10, 0))
	pose := tr.At(time.Hour)
	if !pose.T.AlmostEqual(geom.V3(10, 10, 0), 1e-9) {
		t.Errorf("end position = %v", pose.T)
	}
	if yaw := pose.R.Yaw(); math.Abs(yaw-math.Pi/2) > 1e-12 {
		t.Errorf("parked heading = %v, want last-segment π/2", yaw)
	}
	// Duplicate end waypoints must not glitch the heading either.
	dup := NewTrajectory(10, geom.V3(0, 0, 0), geom.V3(0, 10, 0), geom.V3(0, 10, 0))
	if yaw := dup.At(time.Minute).R.Yaw(); math.Abs(yaw-math.Pi/2) > 1e-12 {
		t.Errorf("heading with duplicated end = %v, want π/2", yaw)
	}
}

// Package sim plays out multi-vehicle Cooper timelines: vehicles drive
// along waypoint trajectories, sense at their LiDAR rate and exchange
// data at the paper's 1 Hz cooperative rate.
package sim

import (
	"math"
	"time"

	"cooper/internal/geom"
)

// Trajectory moves a vehicle through waypoints at constant speed,
// interpolating position and heading.
type Trajectory struct {
	waypoints []geom.Vec3
	speed     float64 // m/s
}

// NewTrajectory builds a trajectory over the waypoints at the given speed
// in metres per second. At least one waypoint is required; a single
// waypoint yields a stationary trajectory.
func NewTrajectory(speed float64, waypoints ...geom.Vec3) *Trajectory {
	wps := make([]geom.Vec3, len(waypoints))
	copy(wps, waypoints)
	return &Trajectory{waypoints: wps, speed: speed}
}

// At returns the pose at the given elapsed time: position on the path and
// heading along it. Past the end the final position holds with the last
// segment's heading — a finished trajectory parks, it never snaps its
// heading back to zero. Zero-length segments are skipped for heading, so
// duplicated waypoints cannot glitch the yaw.
func (t *Trajectory) At(elapsed time.Duration) geom.Transform {
	if len(t.waypoints) == 0 {
		return geom.IdentityTransform()
	}
	if len(t.waypoints) == 1 || t.speed <= 0 {
		return geom.NewTransform(0, 0, 0, t.waypoints[0])
	}
	remaining := math.Max(elapsed.Seconds(), 0) * t.speed
	pos := t.waypoints[0]
	yaw := 0.0
	for i := 1; i < len(t.waypoints); i++ {
		seg := t.waypoints[i].Sub(t.waypoints[i-1])
		segLen := seg.Norm()
		if segLen == 0 {
			continue
		}
		yaw = math.Atan2(seg.Y, seg.X)
		if remaining <= segLen {
			pos = t.waypoints[i-1].Lerp(t.waypoints[i], remaining/segLen)
			return geom.NewTransform(yaw, 0, 0, pos)
		}
		remaining -= segLen
		pos = t.waypoints[i]
	}
	return geom.NewTransform(yaw, 0, 0, pos)
}

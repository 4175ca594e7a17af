package scene

import (
	"math"
	"time"

	"cooper/internal/geom"
	"cooper/internal/sim"
)

// Motion describes how a scenario body — a fleet pose or a scene object —
// moves through the world. The zero Motion is stationary. Two models are
// supported, matching the trajectory primitives the episode engine
// compensates for:
//
//   - constant velocity: the body translates at Velocity (world frame,
//     m/s) without turning;
//   - waypoint following: the body traverses Waypoints at Speed (m/s),
//     heading along the current segment, holding the final pose once the
//     path is exhausted. Waypoint motion takes precedence when at least
//     two waypoints are given and Speed is positive.
type Motion struct {
	// Velocity is the constant world-frame velocity, m/s.
	Velocity geom.Vec3
	// Speed is the path speed for waypoint motion, m/s.
	Speed float64
	// Waypoints is the world-frame polyline for waypoint motion. The
	// body's t = 0 placement must coincide with the path start (the
	// generator guarantees this for generated scenarios).
	Waypoints []geom.Vec3
}

// ConstVelocity returns a constant-velocity motion on the ground plane.
func ConstVelocity(vx, vy float64) Motion {
	return Motion{Velocity: geom.V3(vx, vy, 0)}
}

// HeadingVelocity returns a constant-velocity motion of the given speed
// along the given heading.
func HeadingVelocity(speed, yaw float64) Motion {
	return ConstVelocity(speed*math.Cos(yaw), speed*math.Sin(yaw))
}

// WaypointMotion returns a waypoint-following motion at the given speed.
func WaypointMotion(speed float64, waypoints ...geom.Vec3) Motion {
	wps := make([]geom.Vec3, len(waypoints))
	copy(wps, waypoints)
	return Motion{Speed: speed, Waypoints: wps}
}

// IsZero reports whether the motion is stationary: no velocity and no
// usable waypoint path.
func (m Motion) IsZero() bool {
	if m.waypointPath() {
		return m.pathLength() == 0
	}
	return m.Velocity == geom.Vec3{}
}

// waypointPath reports whether the waypoint model is in effect.
func (m Motion) waypointPath() bool {
	return len(m.Waypoints) >= 2 && m.Speed > 0
}

// pathLength returns the waypoint polyline's total length.
func (m Motion) pathLength() float64 {
	total := 0.0
	for i := 1; i < len(m.Waypoints); i++ {
		total += m.Waypoints[i].Sub(m.Waypoints[i-1]).Norm()
	}
	return total
}

// pathPose returns the waypoint path's own pose (position plus segment
// heading) after travelling for t. The walk itself — interpolation,
// zero-length-segment skipping, parking at the final pose with the last
// heading — is sim.Trajectory's; delegating keeps the two packages'
// waypoint semantics from drifting apart.
func (m Motion) pathPose(t time.Duration) geom.Transform {
	return sim.NewTrajectory(m.Speed, m.Waypoints...).At(t)
}

// Delta returns the world-frame rigid transform carrying the body from
// its pose at t1 to its pose at t2. It is the identity when t1 == t2 or
// the motion is stationary; for constant velocity it is a pure
// translation; for waypoint motion it includes the heading change along
// the path. Applying Delta(t1, t2) to a body's world placement at t1
// yields its placement at t2.
func (m Motion) Delta(t1, t2 time.Duration) geom.Transform {
	if t1 == t2 || m.IsZero() {
		return geom.IdentityTransform()
	}
	if m.waypointPath() {
		p1 := m.pathPose(t1)
		p2 := m.pathPose(t2)
		return p2.Compose(p1.Inverse())
	}
	dt := (t2 - t1).Seconds()
	return geom.Transform{R: geom.Identity3(), T: m.Velocity.Scale(dt)}
}

// PoseAt returns the world pose at time t of a body whose pose at t = 0
// is base.
func (m Motion) PoseAt(base geom.Transform, t time.Duration) geom.Transform {
	return m.Delta(0, t).Compose(base)
}

// Dynamic reports whether any pose or object of the scenario moves.
func (s *Scenario) Dynamic() bool {
	for _, m := range s.PoseMotions {
		if !m.IsZero() {
			return true
		}
	}
	for _, m := range s.Motions {
		if !m.IsZero() {
			return true
		}
	}
	return false
}

// PoseMotion returns the motion of pose i (the zero Motion when the
// scenario has no pose motions).
func (s *Scenario) PoseMotion(i int) Motion {
	if i < 0 || i >= len(s.PoseMotions) {
		return Motion{}
	}
	return s.PoseMotions[i]
}

// ObjectMotion returns the motion of the scene object with the given ID
// (the zero Motion for stationary objects).
func (s *Scenario) ObjectMotion(id int) Motion {
	return s.Motions[id]
}

// SetObjectMotion records a scene object's motion.
func (s *Scenario) SetObjectMotion(id int, m Motion) {
	if s.Motions == nil {
		s.Motions = make(map[int]Motion)
	}
	s.Motions[id] = m
}

// PoseAt returns pose i advanced to time t.
func (s *Scenario) PoseAt(i int, t time.Duration) geom.Transform {
	return s.PoseMotion(i).PoseAt(s.Poses[i], t)
}

// MovingObjects counts scene objects with a non-stationary motion.
func (s *Scenario) MovingObjects() int {
	n := 0
	for _, m := range s.Motions {
		if !m.IsZero() {
			n++
		}
	}
	return n
}

// At returns the world at time t as a static snapshot: every pose and
// every scene object advanced along its motion, with all other scenario
// data shared. At(0) — and At of a fully static scenario — returns the
// receiver itself, so the paper's frozen scenarios and every existing
// figure are untouched by the time axis.
//
// Snapshots carry no motion tables: a snapshot is one instant, and
// re-advancing it would double-apply waypoint paths. Time-dependent code
// (episodes, compensation) always works from the base scenario.
func (s *Scenario) At(t time.Duration) *Scenario {
	if t == 0 || !s.Dynamic() {
		return s
	}
	out := *s
	out.Motions = nil
	out.PoseMotions = nil

	out.Poses = make([]geom.Transform, len(s.Poses))
	for i := range s.Poses {
		out.Poses[i] = s.PoseAt(i, t)
	}

	moved := &Scene{GroundZ: s.Scene.GroundZ, nextID: s.Scene.nextID}
	moved.Objects = make([]Object, len(s.Scene.Objects))
	for i, o := range s.Scene.Objects {
		if m, ok := s.Motions[o.ID]; ok && !m.IsZero() {
			o.Box = o.Box.Transformed(m.Delta(0, t))
		}
		moved.Objects[i] = o
	}
	out.Scene = moved
	return &out
}

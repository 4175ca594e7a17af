// Package fusion implements Cooper's raw-data-level fusion: aligning a
// transmitting vehicle's LiDAR point cloud into the receiving vehicle's
// sensor frame using GPS positions and IMU attitudes (Eqs. 1–3 of the
// paper) and merging the clouds (Eq. 2). It also models GPS drift — the
// robustness dimension of Fig. 10 — and provides an ICP-style refinement
// that corrects residual misalignment.
package fusion

import (
	"math/rand"

	"cooper/internal/geom"
	"cooper/internal/lidar"
	"cooper/internal/pointcloud"
)

// VehicleState is the pose information a vehicle encapsulates in a Cooper
// exchange package (§II-D): its GPS position and IMU attitude, plus the
// LiDAR mount height (installation information).
type VehicleState struct {
	// GPS is the vehicle's reported world position, metres.
	GPS geom.Vec3
	// Yaw, Pitch and Roll are the IMU attitude angles, radians.
	Yaw, Pitch, Roll float64
	// MountHeight is the LiDAR's height above the vehicle origin.
	MountHeight float64
}

// Pose returns the vehicle's rigid body pose in the world frame.
func (s VehicleState) Pose() geom.Transform {
	return geom.NewTransform(s.Yaw, s.Pitch, s.Roll, s.GPS)
}

// SensorToWorld returns the transform from the vehicle's LiDAR sensor
// frame to the world frame.
func (s VehicleState) SensorToWorld() geom.Transform {
	return lidar.SensorTransform(s.Pose(), s.MountHeight).Inverse()
}

// AlignTransform computes the paper's Eq. 3 transform: it maps points from
// the transmitter's sensor frame into the receiver's sensor frame using
// the two vehicles' GPS/IMU states. The rotation is built from the IMU
// difference (Eq. 1) and the translation from the GPS difference.
func AlignTransform(receiver, transmitter VehicleState) geom.Transform {
	toWorld := transmitter.SensorToWorld()
	worldToReceiver := lidar.SensorTransform(receiver.Pose(), receiver.MountHeight)
	return worldToReceiver.Compose(toWorld)
}

// Align maps the transmitter's cloud into the receiver's sensor frame.
func Align(receiver, transmitter VehicleState, cloud *pointcloud.Cloud) *pointcloud.Cloud {
	return cloud.Transform(AlignTransform(receiver, transmitter))
}

// Merge implements Eq. 2: the receiver's points unioned with the aligned
// clouds of any number of transmitters.
func Merge(receiverCloud *pointcloud.Cloud, aligned ...*pointcloud.Cloud) *pointcloud.Cloud {
	return receiverCloud.Merge(aligned...)
}

// Fuse is the full cooperative step for one transmitter: align then
// merge, the aligned points written straight into the merged cloud.
func Fuse(receiver, transmitter VehicleState, receiverCloud, transmitterCloud *pointcloud.Cloud) *pointcloud.Cloud {
	out := pointcloud.New(receiverCloud.Len() + transmitterCloud.Len())
	out.Append(receiverCloud)
	out.AppendTransformed(transmitterCloud, AlignTransform(receiver, transmitter))
	return out
}

// DriftMode enumerates the GPS skew regimes of the paper's robustness
// experiment (Fig. 10).
type DriftMode int

// Drift modes, §IV-F: baseline (no artificial skew), skew of both axes to
// the drift bound, skew of a single axis, and doubling the bound to
// simulate abnormal GPS behaviour.
const (
	DriftNone DriftMode = iota + 1
	DriftBothAxes
	DriftOneAxis
	DriftDouble
)

// String implements fmt.Stringer.
func (m DriftMode) String() string {
	switch m {
	case DriftNone:
		return "baseline"
	case DriftBothAxes:
		return "skew-xy"
	case DriftOneAxis:
		return "skew-one-axis"
	case DriftDouble:
		return "skew-2x"
	default:
		return "unknown"
	}
}

// MaxGPSDrift is the positional error bound of an integrated GPS/IMU
// system, ≈10 cm (paper §IV-F, citing Chiang et al.).
const MaxGPSDrift = 0.10

// ApplyDrift returns the state with its GPS reading skewed per the mode.
// The rng supplies the axis choice and signs; pass a deterministic source
// for reproducible experiments.
func ApplyDrift(s VehicleState, mode DriftMode, rng *rand.Rand) VehicleState {
	sign := func() float64 {
		if rng.Intn(2) == 0 {
			return -1
		}
		return 1
	}
	out := s
	switch mode {
	case DriftBothAxes:
		out.GPS.X += sign() * MaxGPSDrift
		out.GPS.Y += sign() * MaxGPSDrift
	case DriftOneAxis:
		if rng.Intn(2) == 0 {
			out.GPS.X += sign() * MaxGPSDrift
		} else {
			out.GPS.Y += sign() * MaxGPSDrift
		}
	case DriftDouble:
		out.GPS.X += sign() * 2 * MaxGPSDrift
		out.GPS.Y += sign() * 2 * MaxGPSDrift
	}
	return out
}

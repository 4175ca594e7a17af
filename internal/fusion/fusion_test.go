package fusion

import (
	"math"
	"math/rand"
	"testing"

	"cooper/internal/geom"
	"cooper/internal/lidar"
	"cooper/internal/pointcloud"
)

func state(x, y, yaw float64) VehicleState {
	return VehicleState{GPS: geom.V3(x, y, 0), Yaw: yaw, MountHeight: 1.73}
}

func TestAlignTransformIdentityForSamePose(t *testing.T) {
	a := state(5, 5, 0.4)
	tr := AlignTransform(a, a)
	if !tr.AlmostEqual(geom.IdentityTransform(), 1e-9) {
		t.Errorf("same-pose alignment = %+v, want identity", tr)
	}
}

func TestAlignMapsSharedWorldPoint(t *testing.T) {
	// Both vehicles observe the same world point; after alignment the
	// transmitter's observation must land on the receiver's.
	rx := state(0, 0, 0)
	tx := state(20, 10, math.Pi/3)
	world := geom.V3(12, 4, 1.0)

	rxSensor := lidar.SensorTransform(rx.Pose(), rx.MountHeight).Apply(world)
	txSensor := lidar.SensorTransform(tx.Pose(), tx.MountHeight).Apply(world)

	got := AlignTransform(rx, tx).Apply(txSensor)
	if !got.AlmostEqual(rxSensor, 1e-9) {
		t.Errorf("aligned point %v, want %v", got, rxSensor)
	}
}

func TestAlignCloud(t *testing.T) {
	rx := state(0, 0, 0)
	tx := state(10, 0, math.Pi) // facing back toward the receiver
	// A point 3 m in front of the transmitter sits at world x = 7.
	cloud := pointcloud.FromPoints([]pointcloud.Point{{X: 3, Y: 0, Z: 0}})
	aligned := Align(rx, tx, cloud)
	p := aligned.At(0)
	if math.Abs(p.X-7) > 1e-9 || math.Abs(p.Y) > 1e-9 {
		t.Errorf("aligned to (%v, %v), want (7, 0)", p.X, p.Y)
	}
	// Sensor heights match, so z is unchanged.
	if math.Abs(p.Z) > 1e-9 {
		t.Errorf("z = %v, want 0", p.Z)
	}
}

func TestFuseGrowsCloud(t *testing.T) {
	rx := state(0, 0, 0)
	tx := state(30, 0, 0)
	a := pointcloud.FromPoints([]pointcloud.Point{{X: 1}, {X: 2}})
	b := pointcloud.FromPoints([]pointcloud.Point{{X: 1}})
	m := Fuse(rx, tx, a, b)
	if m.Len() != 3 {
		t.Errorf("fused len = %d, want 3", m.Len())
	}
	// The transmitter's x=1 lands at world 31 = receiver frame 31.
	if math.Abs(m.At(2).X-31) > 1e-9 {
		t.Errorf("transmitter point at %v, want 31", m.At(2).X)
	}
}

func TestApplyDriftMagnitudes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := state(100, 50, 0.3)

	for i := 0; i < 50; i++ {
		const eps = 1e-9
		near := func(a, b float64) bool { return math.Abs(a-b) < eps }
		d := ApplyDrift(s, DriftBothAxes, rng)
		if !near(math.Abs(d.GPS.X-s.GPS.X), MaxGPSDrift) || !near(math.Abs(d.GPS.Y-s.GPS.Y), MaxGPSDrift) {
			t.Fatalf("both-axes drift moved by (%v, %v)", d.GPS.X-s.GPS.X, d.GPS.Y-s.GPS.Y)
		}
		d = ApplyDrift(s, DriftOneAxis, rng)
		dx, dy := math.Abs(d.GPS.X-s.GPS.X), math.Abs(d.GPS.Y-s.GPS.Y)
		if !(near(dx, MaxGPSDrift) && dy == 0) && !(dx == 0 && near(dy, MaxGPSDrift)) {
			t.Fatalf("one-axis drift moved by (%v, %v)", dx, dy)
		}
		d = ApplyDrift(s, DriftDouble, rng)
		if !near(math.Abs(d.GPS.X-s.GPS.X), 2*MaxGPSDrift) || !near(math.Abs(d.GPS.Y-s.GPS.Y), 2*MaxGPSDrift) {
			t.Fatalf("double drift moved by (%v, %v)", d.GPS.X-s.GPS.X, d.GPS.Y-s.GPS.Y)
		}
	}
	if got := ApplyDrift(s, DriftNone, rng); got != s {
		t.Error("baseline drift changed the state")
	}
}

func TestDriftModeString(t *testing.T) {
	cases := map[DriftMode]string{
		DriftNone:     "baseline",
		DriftBothAxes: "skew-xy",
		DriftOneAxis:  "skew-one-axis",
		DriftDouble:   "skew-2x",
		DriftMode(99): "unknown",
	}
	for m, want := range cases {
		if got := m.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(m), got, want)
		}
	}
}

func TestDriftKeepsAttitude(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := VehicleState{GPS: geom.V3(1, 2, 0), Yaw: 0.5, Pitch: 0.1, Roll: -0.2, MountHeight: 1.73}
	d := ApplyDrift(s, DriftDouble, rng)
	if d.Yaw != s.Yaw || d.Pitch != s.Pitch || d.Roll != s.Roll || d.MountHeight != s.MountHeight {
		t.Error("drift altered non-GPS fields")
	}
}

func TestAlignmentErrorBoundedByDrift(t *testing.T) {
	// With drift ≤ 2·MaxGPSDrift per axis on both vehicles, a shared
	// world point misaligns by at most 4·√2·MaxGPSDrift ≈ 0.57 m.
	rng := rand.New(rand.NewSource(42))
	rx := state(0, 0, 0.2)
	tx := state(15, -5, 2.1)
	world := geom.V3(10, 3, 0.5)
	txSensor := lidar.SensorTransform(tx.Pose(), tx.MountHeight).Apply(world)
	ideal := AlignTransform(rx, tx).Apply(txSensor)

	for i := 0; i < 100; i++ {
		rxD := ApplyDrift(rx, DriftDouble, rng)
		txD := ApplyDrift(tx, DriftDouble, rng)
		got := AlignTransform(rxD, txD).Apply(txSensor)
		if d := got.Sub(ideal).Norm(); d > 4*math.Sqrt2*MaxGPSDrift+1e-9 {
			t.Fatalf("drifted alignment error %v exceeds bound", d)
		}
	}
}

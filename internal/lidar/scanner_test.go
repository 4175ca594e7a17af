package lidar

import (
	"math"
	"testing"

	"cooper/internal/geom"
)

func carTarget(id int, x, y, yaw float64) Target {
	return Target{
		Box:          geom.NewBox(geom.V3(x, y, 0.78), 3.9, 1.6, 1.56, yaw),
		Reflectivity: 0.6,
		ObjectID:     id,
	}
}

func TestConfigPresets(t *testing.T) {
	cases := []struct {
		cfg   Config
		beams int
	}{
		{VLP16(), 16},
		{HDL32(), 32},
		{HDL64(), 64},
	}
	for _, c := range cases {
		if got := c.cfg.BeamCount(); got != c.beams {
			t.Errorf("%s: BeamCount = %d, want %d", c.cfg.Name, got, c.beams)
		}
		if c.cfg.AzimuthStep <= 0 {
			t.Errorf("%s: AzimuthStep = %v, want > 0", c.cfg.Name, c.cfg.AzimuthStep)
		}
	}
	// VLP-16 elevations span ±15°.
	v := VLP16()
	if math.Abs(v.BeamElevations[0]-geom.Deg2Rad(-15)) > 1e-9 {
		t.Errorf("VLP16 bottom beam = %v", geom.Rad2Deg(v.BeamElevations[0]))
	}
	if math.Abs(v.BeamElevations[15]-geom.Deg2Rad(15)) > 1e-9 {
		t.Errorf("VLP16 top beam = %v", geom.Rad2Deg(v.BeamElevations[15]))
	}
}

func TestScanSeesCar(t *testing.T) {
	s := NewScanner(VLP16(), 1)
	scan := s.ScanFrom(geom.IdentityTransform(), []Target{carTarget(7, 10, 0, 0)}, -VLP16().MountHeight)
	if scan.HitsPerObject[7] == 0 {
		t.Fatal("scan produced no hits on a car 10 m ahead")
	}
	if scan.Cloud.Len() == 0 {
		t.Fatal("scan produced an empty cloud")
	}
}

func TestScanOcclusionCreatesBlindZone(t *testing.T) {
	// A truck directly between the sensor and a car: the car must receive
	// far fewer (ideally zero) returns — the paper's motivating blind-zone
	// failure.
	cfg := VLP16()
	cfg.DropoutProb = 0
	s := NewScanner(cfg, 2)
	truck := Target{Box: geom.NewBox(geom.V3(8, 0, 1.5), 8, 2.6, 3, 0), Reflectivity: 0.5, ObjectID: 1}
	hiddenCar := carTarget(2, 20, 0, 0)

	withTruck := s.ScanFrom(geom.IdentityTransform(), []Target{truck, hiddenCar}, -cfg.MountHeight)
	s2 := NewScanner(cfg, 2)
	without := s2.ScanFrom(geom.IdentityTransform(), []Target{hiddenCar}, -cfg.MountHeight)

	if withTruck.HitsPerObject[2] >= without.HitsPerObject[2]/4 {
		t.Errorf("occluded car got %d hits, unoccluded %d — occlusion too weak",
			withTruck.HitsPerObject[2], without.HitsPerObject[2])
	}
}

func TestScanDensityRatio64vs16(t *testing.T) {
	// The paper: 16-beam clouds are ~4× sparser than 64-beam clouds.
	car := carTarget(1, 15, 0, 0)
	s16 := NewScanner(VLP16(), 3)
	s64 := NewScanner(HDL64(), 3)
	h16 := s16.ScanFrom(geom.IdentityTransform(), []Target{car}, -1.73).HitsPerObject[1]
	h64 := s64.ScanFrom(geom.IdentityTransform(), []Target{car}, -1.73).HitsPerObject[1]
	if h16 == 0 || h64 == 0 {
		t.Fatalf("no hits: h16=%d h64=%d", h16, h64)
	}
	ratio := float64(h64) / float64(h16)
	if ratio < 2 || ratio > 8 {
		t.Errorf("64-beam/16-beam hit ratio = %.1f, want ≈ 4", ratio)
	}
}

func TestScanRangeDependentDensity(t *testing.T) {
	// Nearer objects collect more returns — the basis for the paper's
	// near/medium/far difficulty bands.
	near := carTarget(1, 8, 5, 0)
	far := carTarget(2, 40, 5, 0)
	s := NewScanner(VLP16(), 4)
	scan := s.ScanFrom(geom.IdentityTransform(), []Target{near, far}, -1.73)
	if scan.HitsPerObject[1] <= scan.HitsPerObject[2] {
		t.Errorf("near car %d hits <= far car %d hits", scan.HitsPerObject[1], scan.HitsPerObject[2])
	}
}

func TestScanDeterministicForSeed(t *testing.T) {
	targets := []Target{carTarget(1, 12, -3, 0.4)}
	a := NewScanner(VLP16(), 99).ScanFrom(geom.IdentityTransform(), targets, -1.73)
	b := NewScanner(VLP16(), 99).ScanFrom(geom.IdentityTransform(), targets, -1.73)
	if a.Cloud.Len() != b.Cloud.Len() {
		t.Fatalf("same seed produced different clouds: %d vs %d", a.Cloud.Len(), b.Cloud.Len())
	}
	for i := 0; i < a.Cloud.Len(); i++ {
		if a.Cloud.At(i) != b.Cloud.At(i) {
			t.Fatalf("point %d differs", i)
		}
	}
}

func TestScanPointsInSensorFrame(t *testing.T) {
	// Place the sensor at a world offset; a car 10 m ahead of the sensor
	// must appear around x ≈ 10 in sensor coordinates regardless of pose.
	cfg := VLP16()
	cfg.RangeNoiseStd = 0
	cfg.DropoutProb = 0
	s := NewScanner(cfg, 5)
	pose := geom.NewTransform(math.Pi/2, 0, 0, geom.V3(100, 50, 0))
	// Sensor faces +y in world after the 90° yaw; put the car there.
	car := carTarget(1, 100, 60, math.Pi/2)
	scan := s.ScanFrom(pose, []Target{car}, -cfg.MountHeight)
	if scan.HitsPerObject[1] == 0 {
		t.Fatal("no hits on car")
	}
	carPts := 0
	for _, p := range scan.Cloud.Points() {
		if p.X > 7 && p.X < 12 && math.Abs(p.Y) < 2 {
			carPts++
		}
	}
	if carPts == 0 {
		t.Error("car points not found near sensor-frame (10, 0)")
	}
}

func TestScanGroundReturnsBelowSensor(t *testing.T) {
	cfg := VLP16()
	cfg.RangeNoiseStd = 0
	cfg.DropoutProb = 0
	s := NewScanner(cfg, 6)
	scan := s.ScanFrom(geom.IdentityTransform(), nil, -cfg.MountHeight)
	if scan.Cloud.Len() == 0 {
		t.Fatal("flat ground scan is empty")
	}
	for _, p := range scan.Cloud.Points() {
		if p.Z > -cfg.MountHeight+0.1 {
			t.Fatalf("ground return at z=%v, want ≈ %v", p.Z, -cfg.MountHeight)
		}
	}
}

func TestScanRespectsMaxRange(t *testing.T) {
	cfg := VLP16()
	cfg.RangeNoiseStd = 0
	cfg.DropoutProb = 0
	s := NewScanner(cfg, 7)
	farCar := carTarget(1, cfg.MaxRange+50, 0, 0)
	scan := s.ScanFrom(geom.IdentityTransform(), []Target{farCar}, -1000)
	if scan.HitsPerObject[1] != 0 {
		t.Error("car beyond max range was hit")
	}
}

func TestScanDropout(t *testing.T) {
	cfg := VLP16()
	cfg.DropoutProb = 0
	full := NewScanner(cfg, 8).ScanFrom(geom.IdentityTransform(), nil, -1.73)
	cfg.DropoutProb = 0.5
	half := NewScanner(cfg, 8).ScanFrom(geom.IdentityTransform(), nil, -1.73)
	ratio := float64(half.Cloud.Len()) / float64(full.Cloud.Len())
	if ratio < 0.4 || ratio > 0.6 {
		t.Errorf("dropout 0.5 kept %.2f of points", ratio)
	}
}

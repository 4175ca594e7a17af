package scene

import (
	"math"
	"testing"

	"cooper/internal/geom"
	"cooper/internal/lidar"
	"cooper/internal/pointcloud"
)

func TestKITTIScenariosStructure(t *testing.T) {
	scs := KITTIScenarios()
	if len(scs) != 4 {
		t.Fatalf("KITTI scenarios = %d, want 4", len(scs))
	}
	wantDeltaD := []float64{14.7, 13.3, 0, 48.1}
	for i, sc := range scs {
		if sc.Dataset != DatasetKITTI {
			t.Errorf("%s: dataset = %v", sc.Name, sc.Dataset)
		}
		if sc.LiDAR.BeamCount() != 64 {
			t.Errorf("%s: beams = %d, want 64", sc.Name, sc.LiDAR.BeamCount())
		}
		if len(sc.Poses) != 2 || len(sc.Cases) != 1 {
			t.Errorf("%s: poses=%d cases=%d, want 2/1", sc.Name, len(sc.Poses), len(sc.Cases))
		}
		if got := sc.DeltaD(sc.Cases[0]); math.Abs(got-wantDeltaD[i]) > 1.0 {
			t.Errorf("%s: Δd = %.1f, want %.1f", sc.Name, got, wantDeltaD[i])
		}
		if sc.FrontFOV <= 0 {
			t.Errorf("%s: KITTI scenarios evaluate a front FOV", sc.Name)
		}
		if len(sc.Scene.Cars()) < 5 {
			t.Errorf("%s: only %d cars", sc.Name, len(sc.Scene.Cars()))
		}
	}
}

func TestTJScenariosStructure(t *testing.T) {
	scs := TJScenarios()
	if len(scs) != 4 {
		t.Fatalf("TJ scenarios = %d, want 4", len(scs))
	}
	totalCases := 0
	for _, sc := range scs {
		if sc.Dataset != DatasetTJ {
			t.Errorf("%s: dataset = %v", sc.Name, sc.Dataset)
		}
		if sc.LiDAR.BeamCount() != 16 {
			t.Errorf("%s: beams = %d, want 16", sc.Name, sc.LiDAR.BeamCount())
		}
		if len(sc.PoseLabels) != len(sc.Poses) {
			t.Errorf("%s: labels/poses mismatch", sc.Name)
		}
		for _, c := range sc.Cases {
			if c.I < 0 || c.I >= len(sc.Poses) || c.J < 0 || c.J >= len(sc.Poses) {
				t.Errorf("%s: case %q references invalid pose", sc.Name, c.Name)
			}
		}
		totalCases += len(sc.Cases)
	}
	// The paper evaluates 15 cooperative cases on the T&J dataset.
	if totalCases != 15 {
		t.Errorf("T&J cooperative cases = %d, want 15", totalCases)
	}
}

func TestPaperScenarioCount(t *testing.T) {
	// §IV-A: "a total of 19 scenarios" — 4 KITTI + 15 T&J cooperative cases.
	all := AllScenarios()
	n := 0
	for _, sc := range all {
		n += len(sc.Cases)
	}
	if n != 19 {
		t.Errorf("total cooperative cases = %d, want 19", n)
	}
}

func TestTJScenario1Distances(t *testing.T) {
	sc := TJScenarios()[0]
	want := []float64{5.5, 14.5, 26.9}
	for i, c := range sc.Cases {
		if got := sc.DeltaD(c); math.Abs(got-want[i]) > 0.2 {
			t.Errorf("case %s Δd = %.2f, want %.2f", c.Name, got, want[i])
		}
	}
}

func TestScenariosDeterministic(t *testing.T) {
	a := TJScenarios()[3]
	b := TJScenarios()[3]
	if len(a.Scene.Objects) != len(b.Scene.Objects) {
		t.Fatal("scenario construction is not deterministic")
	}
	for i := range a.Scene.Objects {
		if a.Scene.Objects[i].Box != b.Scene.Objects[i].Box {
			t.Fatalf("object %d differs between builds", i)
		}
	}
}

func TestScenariosProduceOcclusion(t *testing.T) {
	// Every scenario must contain at least one car that is substantially
	// occluded or out of view from the first pose — otherwise cooperative
	// perception has nothing to recover (the paper's central premise).
	// Evaluation mirrors the harness: sensor-frame cloud, cropped to the
	// scenario's front FOV when one is defined.
	for _, sc := range AllScenarios() {
		cfg := sc.LiDAR
		cfg.DropoutProb = 0
		scanner := lidar.NewScanner(cfg, sc.Seed)
		scan := scanner.ScanFrom(sc.Poses[0], sc.Scene.Targets(), sc.Scene.GroundZ)
		cloud := scan.Cloud
		if sc.FrontFOV > 0 {
			cloud = cloud.CropFOV(0, sc.FrontFOV/2)
		}
		toSensor := lidar.SensorTransform(sc.Poses[0], cfg.MountHeight)
		occluded := 0
		for _, car := range sc.Scene.Cars() {
			boxSensor := car.Box.Transformed(toSensor)
			grown := geom.NewBox(boxSensor.Center, boxSensor.Length+0.2,
				boxSensor.Width+0.2, boxSensor.Height+0.2, boxSensor.Yaw)
			if cloud.Filter(func(p pointcloud.Point) bool { return grown.Contains(p.Pos()) }).Len() < 10 {
				occluded++
			}
		}
		if occluded == 0 {
			t.Errorf("%s: no occluded cars from pose %s", sc.Name, sc.PoseLabels[0])
		}
	}
}

func TestPosesNotInsideObjects(t *testing.T) {
	// An ego vehicle standing inside scene geometry would scan from within
	// a box — a scenario construction bug.
	for _, sc := range AllScenarios() {
		for i, p := range sc.Poses {
			sensor := p.Apply(geom.V3(0, 0, sc.LiDAR.MountHeight))
			for _, o := range sc.Scene.Objects {
				if o.Box.Contains(sensor) || o.Box.ContainsBEV(p.T.XY()) {
					t.Errorf("%s: pose %s sits inside %s (id %d)",
						sc.Name, sc.PoseLabels[i], o.Class, o.ID)
				}
			}
		}
	}
}

func TestScenarioPosesOnGround(t *testing.T) {
	for _, sc := range AllScenarios() {
		for i, p := range sc.Poses {
			if p.T.Z != 0 {
				t.Errorf("%s pose %d not on ground: z=%v", sc.Name, i, p.T.Z)
			}
			// A proper rotation equals the ZYX composition of its own
			// Euler angles; a scaled or reflected matrix does not.
			want := geom.EulerZYX(p.R.Yaw(), p.R.Pitch(), p.R.Roll())
			for r := range want {
				for c := range want[r] {
					if math.Abs(p.R[r][c]-want[r][c]) > 1e-9 {
						t.Errorf("%s pose %d rotation invalid", sc.Name, i)
					}
				}
			}
		}
	}
}

func TestDeltaDZeroForLeftTurn(t *testing.T) {
	lt := KITTIScenarios()[2]
	if got := lt.DeltaD(lt.Cases[0]); got != 0 {
		t.Errorf("left-turn Δd = %v, want 0", got)
	}
	// The poses still differ in heading.
	y0 := lt.Poses[0].R.Yaw()
	y1 := lt.Poses[1].R.Yaw()
	if math.Abs(y0-y1) < 0.1 {
		t.Error("left-turn poses should differ in yaw")
	}
}

func TestVehiclePoseTransformsForward(t *testing.T) {
	p := VehiclePose(5, 5, math.Pi/2)
	fwd := p.ApplyDir(geom.V3(1, 0, 0))
	if !fwd.AlmostEqual(geom.V3(0, 1, 0), 1e-12) {
		t.Errorf("forward dir = %v, want +y", fwd)
	}
}

// TestResolve covers the three lookups the CLIs share: a paper scenario
// by name, a generated family, and an unknown name.
func TestResolve(t *testing.T) {
	sc, err := Resolve("TJ-Scenario 1", 0, 0, 0)
	if err != nil || sc.Name != "TJ-Scenario 1" {
		t.Fatalf("paper scenario: %v, %v", sc, err)
	}
	gen, err := Resolve("platoon", 3, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := Generate(GenParams{Family: FamilyPlatoon, Fleet: 3, Seed: 7})
	if gen.Name != want.Name || len(gen.Poses) != 3 {
		t.Errorf("generated %s with %d poses, want %s", gen.Name, len(gen.Poses), want.Name)
	}
	if _, err := Resolve("nosuch", 3, 7, 0); err == nil || err.Error() != `unknown scenario "nosuch"` {
		t.Errorf("unknown scenario: %v", err)
	}
}

package cooper_test

import (
	"math"
	"testing"

	"cooper"
)

// TestFacadeCooperativeLoop exercises the public API end to end: the
// README quickstart as an assertion — a car hidden from the receiver is
// detected after one cooperative exchange.
func TestFacadeCooperativeLoop(t *testing.T) {
	world := cooper.NewScene()
	world.AddCar(12, 3, 0)
	world.AddTruck(10, -2.5, 0)
	hiddenID := world.AddCar(22, -3.4, 0)

	rx := cooper.NewVehicle("rx", cooper.VLP16(),
		cooper.VehicleState{GPS: cooper.Vec3{}, Yaw: 0}, 1)
	tx := cooper.NewVehicle("tx", cooper.VLP16(),
		cooper.VehicleState{GPS: cooper.Vec3{X: 34}, Yaw: math.Pi}, 2)
	rx.Sense(world.Targets(), world.GroundZ)
	tx.Sense(world.Targets(), world.GroundZ)

	single, _, err := rx.Detect()
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := tx.PreparePackage(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.Data) == 0 {
		t.Fatal("empty exchange payload")
	}
	coop, stats, err := rx.CooperativeDetect(pkg)
	if err != nil {
		t.Fatal(err)
	}
	if len(coop) <= len(single) {
		t.Errorf("cooperative %d ≤ single %d detections", len(coop), len(single))
	}
	if stats.Total <= 0 {
		t.Error("detection stats missing")
	}

	hidden, _ := world.ObjectByID(hiddenID)
	found := false
	for _, d := range coop {
		if d.Box.Center.DistXY(hidden.Box.Center) < 1.5 {
			found = true
		}
	}
	if !found {
		t.Error("hidden car not recovered through the public API")
	}
}

func TestFacadeScenarios(t *testing.T) {
	if got := len(cooper.KITTIScenarios()); got != 4 {
		t.Errorf("KITTI scenarios = %d", got)
	}
	if got := len(cooper.TJScenarios()); got != 4 {
		t.Errorf("TJ scenarios = %d", got)
	}
	cases := 0
	for _, sc := range cooper.AllScenarios() {
		cases += len(sc.Cases)
	}
	if cases != 19 {
		t.Errorf("total cooperative cases = %d, want 19 (paper §IV-A)", cases)
	}
}

func TestFacadeAlignMerge(t *testing.T) {
	rxState := cooper.VehicleState{GPS: cooper.Vec3{}, Yaw: 0, MountHeight: 1.73}
	txState := cooper.VehicleState{GPS: cooper.Vec3{X: 10}, Yaw: 0, MountHeight: 1.73}
	var cloud cooper.Cloud
	cloud.AppendXYZR(1, 0, 0, 0.5)

	aligned := cooper.Align(rxState, txState, &cloud)
	if math.Abs(aligned.At(0).X-11) > 1e-9 {
		t.Errorf("aligned x = %v, want 11", aligned.At(0).X)
	}
	var own cooper.Cloud
	own.AppendXYZR(0, 0, 0, 0.5)
	merged := cooper.Merge(&own, aligned)
	if merged.Len() != 2 {
		t.Errorf("merged len = %d", merged.Len())
	}
	fused := cooper.Fuse(rxState, txState, &own, &cloud)
	if fused.Len() != 2 {
		t.Errorf("fused len = %d", fused.Len())
	}
}

func TestFacadeDetectorConfig(t *testing.T) {
	cfg := cooper.DefaultDetectorConfig()
	if cfg.ScoreThreshold <= 0 || cfg.ScoreThreshold >= 1 {
		t.Errorf("score threshold = %v", cfg.ScoreThreshold)
	}
	det := cooper.NewDetector(cfg)
	var empty cooper.Cloud
	if dets := det.Detect(&empty); len(dets) != 0 {
		t.Error("empty cloud produced detections")
	}
}

func TestFacadeLiDARPresets(t *testing.T) {
	if cooper.VLP16().BeamCount() != 16 || cooper.HDL32().BeamCount() != 32 || cooper.HDL64().BeamCount() != 64 {
		t.Error("preset beam counts wrong")
	}
}

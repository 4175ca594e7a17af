package core

import (
	"errors"
	"math"
	"testing"

	"cooper/internal/fusion"
	"cooper/internal/geom"
	"cooper/internal/lidar"
	"cooper/internal/pointcloud"
	"cooper/internal/scene"
)

// twoCarWorld builds a small world: one car visible to both vehicles, one
// hidden from the receiver behind a truck.
func twoCarWorld() (*scene.Scene, int, int) {
	w := scene.New()
	visible := w.AddCar(12, 3, 0)
	w.AddTruck(10, -2.5, 0)
	hidden := w.AddCar(22, -3.4, 0) // behind the truck from the origin
	return w, visible, hidden
}

func testVehicle(id string, x, y, yaw float64, seed int64) *Vehicle {
	state := fusion.VehicleState{GPS: geom.V3(x, y, 0), Yaw: yaw}
	return NewVehicle(id, lidar.VLP16(), state, seed)
}

func TestVehicleSenseAndDetect(t *testing.T) {
	w, visible, _ := twoCarWorld()
	v := testVehicle("rx", 0, 0, 0, 1)
	cloud := v.Sense(w.Targets(), w.GroundZ)
	if cloud.Len() == 0 {
		t.Fatal("empty scan")
	}
	dets, stats, err := v.Detect(nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.InputPoints != cloud.Len() {
		t.Errorf("stats input %d != cloud %d", stats.InputPoints, cloud.Len())
	}
	car := w.Objects[visible]
	gt := car.Box.Transformed(sensorTransform(v))
	found := false
	for _, d := range dets {
		if geom.IoUBEV(d.Box, gt) > 0.3 {
			found = true
		}
	}
	if !found {
		t.Error("visible car not detected")
	}
}

func TestDetectBeforeSenseFails(t *testing.T) {
	v := testVehicle("rx", 0, 0, 0, 1)
	if _, _, err := v.Detect(nil); !errors.Is(err, ErrNoScan) {
		t.Errorf("err = %v, want ErrNoScan", err)
	}
	if _, err := v.PreparePackage(nil); !errors.Is(err, ErrNoScan) {
		t.Errorf("PreparePackage err = %v, want ErrNoScan", err)
	}
	if _, _, err := v.CooperativeDetect(); !errors.Is(err, ErrNoScan) {
		t.Errorf("CooperativeDetect err = %v, want ErrNoScan", err)
	}
}

func TestExchangeRoundTrip(t *testing.T) {
	w, _, _ := twoCarWorld()
	tx := testVehicle("tx", 30, 0, math.Pi, 2)
	rx := testVehicle("rx", 0, 0, 0, 3)
	tx.Sense(w.Targets(), w.GroundZ)
	rx.Sense(w.Targets(), w.GroundZ)

	pkg, err := tx.PreparePackage(nil)
	if err != nil {
		t.Fatal(err)
	}
	if pkg.SenderID != "tx" || pkg.State != tx.State() || len(pkg.Data) == 0 {
		t.Fatalf("bad package: %+v", pkg.SenderID)
	}

	aligned := alignPayload(t, rx, pkg)
	// The transmitter's returns, aligned, must land near the world
	// objects as seen from the receiver: check the visible car region.
	car := w.Objects[0]
	gt := car.Box.Transformed(sensorTransform(rx))
	grown := geom.NewBox(gt.Center, gt.Length+0.4, gt.Width+0.4, gt.Height+0.5, gt.Yaw)
	if aligned.Filter(func(p pointcloud.Point) bool { return grown.Contains(p.Pos()) }).Len() == 0 {
		t.Error("aligned transmitter cloud has no points on the shared car")
	}
}

// alignPayload fuses one payload into an empty receiver cloud through the
// raw backend, leaving just the sender's points in rx's sensor frame.
func alignPayload(t *testing.T, rx *Vehicle, p fusion.Payload) *pointcloud.Cloud {
	t.Helper()
	own := fusion.SensorFrame{State: rx.State(), Cloud: &pointcloud.Cloud{}}
	in, err := fusion.RawBackend{}.Fuse(own, []fusion.Payload{p})
	if err != nil {
		t.Fatal(err)
	}
	return in.Cloud
}

func TestCooperativeDetectPayloadErrors(t *testing.T) {
	w, _, _ := twoCarWorld()
	rx := testVehicle("rx", 0, 0, 0, 4)
	rx.Sense(w.Targets(), w.GroundZ)
	if _, _, err := rx.CooperativeDetect(fusion.Payload{SenderID: "x"}); err == nil {
		t.Error("empty payload fused")
	}
	if _, _, err := rx.CooperativeDetect(fusion.Payload{SenderID: "x", Data: []byte("garbage....")}); err == nil {
		t.Error("garbage payload decoded")
	}
}

func TestCooperativeDetectRecoversHiddenCar(t *testing.T) {
	// The paper's central claim, end to end through the exchange path:
	// a car invisible to the receiver (occluded) is detected after
	// fusing the transmitter's package.
	w, _, hidden := twoCarWorld()
	rx := testVehicle("rx", 0, 0, 0, 5)
	tx := testVehicle("tx", 34, 0, math.Pi, 6) // looks back at the hidden car
	rx.Sense(w.Targets(), w.GroundZ)
	tx.Sense(w.Targets(), w.GroundZ)

	car := w.Objects[hidden]
	gt := car.Box.Transformed(sensorTransform(rx))

	singles, _, err := rx.Detect(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range singles {
		if geom.IoUBEV(d.Box, gt) > 0.3 {
			t.Fatal("hidden car unexpectedly visible to the receiver alone")
		}
	}

	pkg, err := tx.PreparePackage(nil)
	if err != nil {
		t.Fatal(err)
	}
	coop, _, err := rx.CooperativeDetect(pkg)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range coop {
		if geom.IoUBEV(d.Box, gt) > 0.3 {
			found = true
		}
	}
	if !found {
		t.Error("cooperative detection did not recover the hidden car")
	}
}

func TestFusedCloudGrows(t *testing.T) {
	w, _, _ := twoCarWorld()
	rx := testVehicle("rx", 0, 0, 0, 7)
	tx := testVehicle("tx", 20, 5, 1.0, 8)
	rx.Sense(w.Targets(), w.GroundZ)
	tx.Sense(w.Targets(), w.GroundZ)
	pkg, _ := tx.PreparePackage(nil)
	own, err := rx.SensorFrame(nil)
	if err != nil {
		t.Fatal(err)
	}
	in, err := fusion.RawBackend{}.Fuse(own, []fusion.Payload{pkg})
	if err != nil {
		t.Fatal(err)
	}
	if !in.Merged || in.Cloud.Len() <= rx.Cloud().Len() {
		t.Errorf("merged %d <= own %d", in.Cloud.Len(), rx.Cloud().Len())
	}
}

func TestPreparePackageWithFilter(t *testing.T) {
	w, _, _ := twoCarWorld()
	v := testVehicle("v", 0, 0, 0, 9)
	v.Sense(w.Targets(), w.GroundZ)
	full, err := v.PreparePackage(nil)
	if err != nil {
		t.Fatal(err)
	}
	half, err := v.PreparePackage(func(c *pointcloud.Cloud) *pointcloud.Cloud {
		return c.CropFOV(0, math.Pi/3)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(half.Data) >= len(full.Data) {
		t.Errorf("filtered payload %d >= full %d", len(half.Data), len(full.Data))
	}
}

func TestAreaRange(t *testing.T) {
	if AreaRange(scene.DatasetKITTI) <= AreaRange(scene.DatasetTJ) {
		t.Error("64-beam area should exceed 16-beam area")
	}
}

func TestScenarioRunnerCachesScans(t *testing.T) {
	sc := scene.TJScenarios()[0]
	r := NewScenarioRunner(sc)
	c1 := r.cloudFor(0)
	c2 := r.cloudFor(0)
	if c1 != c2 {
		t.Error("cloudFor re-sensed a cached pose")
	}
}

func TestRunCaseStructure(t *testing.T) {
	sc := scene.TJScenarios()[1]
	r := NewScenarioRunner(sc)
	o, err := r.RunCase(sc.Cases[0], RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if o.DeltaD <= 0 {
		t.Error("DeltaD not computed")
	}
	if len(o.Rows) == 0 {
		t.Fatal("no rows")
	}
	if o.PayloadBytes == 0 {
		t.Error("payload not accounted")
	}
	if o.CloudPointsCoop <= o.CloudPointsI {
		t.Error("merged cloud not larger than single")
	}
	for _, row := range o.Rows {
		if row.I.Kind == 0 || row.J.Kind == 0 || row.Coop.Kind == 0 {
			t.Fatalf("row %d has unset cells", row.CarID)
		}
	}
}

func TestRunCaseCoopNeverBelowSingles(t *testing.T) {
	// Aggregate sanity on one scenario: cooperative detections per case
	// are at least max(single i, single j) − 1 (the paper's matrices
	// allow occasional cell-level exceptions, not aggregate ones).
	sc := scene.TJScenarios()[0]
	r := NewScenarioRunner(sc)
	outcomes, err := r.RunAll(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range outcomes {
		nI, nJ, nC := 0, 0, 0
		for _, row := range o.Rows {
			if row.I.Detected() {
				nI++
			}
			if row.J.Detected() {
				nJ++
			}
			if row.Coop.Detected() {
				nC++
			}
		}
		if nC+1 < nI || nC+1 < nJ {
			t.Errorf("case %s: coop %d far below singles (%d, %d)", o.Case.Name, nC, nI, nJ)
		}
	}
}

func TestRunCaseWithDriftStillDetects(t *testing.T) {
	sc := scene.TJScenarios()[1]
	r := NewScenarioRunner(sc)
	base, err := r.RunCase(sc.Cases[0], RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	drifted, err := r.RunCase(sc.Cases[0], RunOptions{Drift: fusion.DriftDouble, DriftSeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	nBase, nDrift := 0, 0
	for _, row := range base.Rows {
		if row.Coop.Detected() {
			nBase++
		}
	}
	for _, row := range drifted.Rows {
		if row.Coop.Detected() {
			nDrift++
		}
	}
	// The paper's Fig. 10 finding: drift-level skew leaves the
	// overwhelming majority of detections intact.
	if nDrift < nBase-2 {
		t.Errorf("doubled drift lost %d of %d detections", nBase-nDrift, nBase)
	}
}

func TestRunCaseWithICP(t *testing.T) {
	sc := scene.TJScenarios()[1]
	r := NewScenarioRunner(sc)
	o, err := r.RunCase(sc.Cases[0], RunOptions{Drift: fusion.DriftDouble, DriftSeed: 3, UseICP: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(o.Rows) == 0 {
		t.Fatal("ICP run produced no rows")
	}
}

// sensorTransform returns the world→sensor transform of a vehicle.
func sensorTransform(v *Vehicle) geom.Transform {
	s := v.State()
	return lidar.SensorTransform(s.Pose(), s.MountHeight)
}

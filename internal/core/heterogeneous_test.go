package core

import (
	"math"
	"testing"

	"cooper/internal/fusion"
	"cooper/internal/geom"
	"cooper/internal/lidar"
	"cooper/internal/scene"
)

// The paper notes Cooper "can also be applied to heterogeneous point
// clouds input" but could not test it for lack of suitable datasets
// (§IV-A). The simulator removes that gate: these tests fuse clouds from
// different Velodyne models and check the cooperative properties survive
// mixed densities.

func heterogeneousWorld() (*scene.Scene, int) {
	w := scene.New()
	w.AddCar(14, 3.5, 0)
	w.AddTruck(12, -2.5, 0)
	hidden := w.AddCar(24, -3.3, 0)
	w.AddCar(-10, 4, math.Pi)
	return w, hidden
}

func TestHeterogeneousFusion64to16(t *testing.T) {
	// A 16-beam receiver fuses a 64-beam transmitter's frame: the dense
	// donor cloud must recover the receiver's occluded car.
	w, hidden := heterogeneousWorld()
	rx := NewVehicle("rx16", lidar.VLP16(), fusion.VehicleState{GPS: geom.V3(0, 0, 0)}, 1)
	tx := NewVehicle("tx64", lidar.HDL64(), fusion.VehicleState{GPS: geom.V3(38, 0, 0), Yaw: math.Pi}, 2)
	rx.Sense(w.Targets(), w.GroundZ)
	tx.Sense(w.Targets(), w.GroundZ)

	if rx.Cloud().Len()*2 > tx.Cloud().Len() {
		t.Fatalf("expected strong density mismatch: rx %d, tx %d", rx.Cloud().Len(), tx.Cloud().Len())
	}

	pkg, err := tx.PreparePackage(nil)
	if err != nil {
		t.Fatal(err)
	}
	dets, _, err := rx.CooperativeDetect(pkg)
	if err != nil {
		t.Fatal(err)
	}
	car, _ := w.ObjectByID(hidden)
	gt := car.Box.Transformed(rx.SensorTransform())
	found := false
	for _, d := range dets {
		if geom.IoUBEV(d.Box, gt) > 0.3 {
			found = true
		}
	}
	if !found {
		t.Error("64-beam donor did not recover the 16-beam receiver's hidden car")
	}
}

func TestHeterogeneousFusion16to64(t *testing.T) {
	// The sparse donor direction: a 64-beam receiver gains the 16-beam
	// transmitter's viewpoint. The merged pass must retain everything the
	// receiver saw alone (sparse contributions never hurt).
	w, _ := heterogeneousWorld()
	rx := NewVehicle("rx64", lidar.HDL64(), fusion.VehicleState{GPS: geom.V3(0, 0, 0)}, 3)
	tx := NewVehicle("tx16", lidar.VLP16(), fusion.VehicleState{GPS: geom.V3(38, 0, 0), Yaw: math.Pi}, 4)
	rx.Sense(w.Targets(), w.GroundZ)
	tx.Sense(w.Targets(), w.GroundZ)

	single, _, err := rx.Detect()
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := tx.PreparePackage(nil)
	if err != nil {
		t.Fatal(err)
	}
	coop, _, err := rx.CooperativeDetect(pkg)
	if err != nil {
		t.Fatal(err)
	}
	if len(coop) < len(single) {
		t.Errorf("sparse donor lost detections: %d -> %d", len(single), len(coop))
	}
}

func TestHeterogeneousMixedMountHeights(t *testing.T) {
	// Different LiDAR installation heights must be absorbed by the
	// exchange package's installation metadata (§II-D): a shared car's
	// points from both vehicles land in the same receiver-frame region.
	w, _ := heterogeneousWorld()
	rxCfg := lidar.VLP16()
	txCfg := lidar.HDL32()
	txCfg.MountHeight = 2.4 // roof-rack installation

	rx := NewVehicle("rx", rxCfg, fusion.VehicleState{GPS: geom.V3(0, 0, 0)}, 5)
	tx := NewVehicle("tx", txCfg, fusion.VehicleState{GPS: geom.V3(30, 6, 0), Yaw: -2.8, MountHeight: 2.4}, 6)
	rx.Sense(w.Targets(), w.GroundZ)
	tx.Sense(w.Targets(), w.GroundZ)

	pkg, err := tx.PreparePackage(nil)
	if err != nil {
		t.Fatal(err)
	}
	aligned := alignPayload(t, rx, pkg)
	// Ground returns from the 2.4 m-high donor must align to the
	// receiver's ground level (z ≈ −1.73 in its sensor frame).
	groundZ := aligned.EstimateGroundZ()
	if math.Abs(groundZ-(-rxCfg.MountHeight)) > 0.15 {
		t.Errorf("donor ground at z = %.2f in receiver frame, want ≈ %.2f", groundZ, -rxCfg.MountHeight)
	}
}

package sim_test

import (
	"testing"
	"time"

	"cooper/internal/core"
	"cooper/internal/fusion"
	"cooper/internal/geom"
	"cooper/internal/lidar"
	"cooper/internal/scene"
	"cooper/internal/sim"
)

// TestDrivenCooperativeTimeline plays a Cooper timeline: an ego vehicle
// drives past a truck while a parked connected vehicle shares its view
// once per simulated second (the paper's 1 Hz cooperative exchange
// rate); the hidden car behind the truck must appear in the ego's
// cooperative detections at some tick.
func TestDrivenCooperativeTimeline(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-scan timeline")
	}
	world := scene.New()
	world.AddTruck(20, -2.5, 0)
	hidden := world.AddCar(32, -3.2, 0)
	world.AddCar(15, 4, 0)

	ego := core.NewVehicle("ego", lidar.VLP16(), fusion.VehicleState{GPS: geom.V3(0, 0, 0)}, 1)
	parked := core.NewVehicle("parked", lidar.VLP16(),
		fusion.VehicleState{GPS: geom.V3(45, 0, 0), Yaw: 3.14159}, 2)
	parked.Sense(world.Targets(), world.GroundZ)

	traj := sim.NewTrajectory(8, geom.V3(0, 0, 0), geom.V3(12, 0, 0))

	recovered := false
	for now := time.Duration(0); now <= 2*time.Second; now += time.Second {
		pose := traj.At(now)
		ego.SetState(fusion.VehicleState{GPS: pose.T, Yaw: pose.R.Yaw()})
		ego.Sense(world.Targets(), world.GroundZ)

		pkg, err := parked.PreparePackage(nil)
		if err != nil {
			t.Fatalf("prepare: %v", err)
		}
		dets, _, err := ego.CooperativeDetect(pkg)
		if err != nil {
			t.Fatalf("detect: %v", err)
		}
		car, _ := world.ObjectByID(hidden)
		gt := car.Box.Transformed(ego.SensorTransform())
		for _, d := range dets {
			if d.Box.Center.DistXY(gt.Center) < 1.5 {
				recovered = true
			}
		}
	}

	if !recovered {
		t.Error("hidden car never appeared in cooperative detections along the drive")
	}
}

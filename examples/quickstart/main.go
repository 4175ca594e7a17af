// Quickstart: two connected vehicles, one occluded car, one cooperative
// exchange. Demonstrates the full Cooper loop from the paper — sense,
// package, align, merge, detect — in under a screen of code.
package main

import (
	"fmt"
	"log"

	"cooper"
)

func main() {
	// A world: a car both vehicles can see, a truck, and a car hidden
	// behind the truck from the receiver's position.
	world := cooper.NewScene()
	world.AddCar(12, 3, 0)
	world.AddTruck(10, -2.5, 0)
	world.AddCar(22, -3.4, 0) // invisible from the origin

	// The receiver sits at the origin; the transmitter looks back from
	// beyond the hidden car.
	rx := cooper.NewVehicle("rx", cooper.VLP16(),
		cooper.VehicleState{GPS: cooper.Vec3{X: 0, Y: 0}, Yaw: 0}, 1)
	tx := cooper.NewVehicle("tx", cooper.VLP16(),
		cooper.VehicleState{GPS: cooper.Vec3{X: 34, Y: 0}, Yaw: 3.14159}, 2)

	rx.Sense(world.Targets(), world.GroundZ)
	tx.Sense(world.Targets(), world.GroundZ)

	// Single-shot perception: the receiver alone.
	single, _, err := rx.Detect(nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("single shot: %d cars detected\n", len(single))

	// Cooperative perception: the transmitter shares its frame (§II-D
	// exchange package: quantized cloud + GPS/IMU state), the receiver
	// aligns (Eq. 1–3), merges (Eq. 2) and re-detects.
	pkg, err := tx.PreparePackage(nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exchange payload: %d KB\n", len(pkg.Data)/1024)

	coop, stats, err := rx.CooperativeDetect(pkg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cooperative: %d cars detected in %v\n", len(coop), stats.Total.Round(1e6))
	for _, d := range coop {
		fmt.Printf("  car at (%5.1f, %5.1f) score %.2f\n", d.Box.Center.X, d.Box.Center.Y, d.Score)
	}
}

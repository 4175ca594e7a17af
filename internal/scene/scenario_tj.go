package scene

import (
	"fmt"
	"math"
	"math/rand"

	"cooper/internal/geom"
	"cooper/internal/lidar"
)

// TJScenarios builds the four parking-lot scenarios of Fig. 6, collected
// with a 16-beam VLP-16. Each scenario provides several vehicle poses
// (car1, car2, …) and the paper's cooperative cases at increasing
// inter-vehicle distances.
func TJScenarios() []*Scenario {
	return []*Scenario{
		tjScenario1(),
		tjScenario2(),
		tjScenario3(),
		tjScenario4(),
	}
}

func tjBase(name string, seed int64) *Scenario {
	return &Scenario{
		Name:    name,
		Dataset: DatasetTJ,
		LiDAR:   lidar.VLP16(),
		Scene:   New(),
		Seed:    seed,
	}
}

// addParkingRow adds n parked cars along +x starting at (x0, y), spaced
// pitch metres apart, facing yaw with per-car jitter. It returns the IDs.
func addParkingRow(w *Scene, rng *rand.Rand, x0, y float64, n int, pitch, yaw float64) []int {
	ids := make([]int, 0, n)
	for i := 0; i < n; i++ {
		jx := (rng.Float64() - 0.5) * 0.4
		jy := (rng.Float64() - 0.5) * 0.3
		jyaw := (rng.Float64() - 0.5) * 0.12
		ids = append(ids, w.AddCar(x0+float64(i)*pitch+jx, y+jy, yaw+jyaw))
	}
	return ids
}

func tjScenario1() *Scenario {
	sc := tjBase("TJ-Scenario 1", 201)
	// All placement jitter derives from the scenario's fixed seed — same
	// seed, same world bytes (randsource allowlist: explicitly seeded source).
	rng := rand.New(rand.NewSource(sc.Seed))
	w := sc.Scene

	// Two facing rows of parked cars across a driving aisle. Ego vehicles
	// sit in the aisle; each row occludes the row behind it.
	addParkingRow(w, rng, -6, 7.5, 6, 5.5, -math.Pi/2)
	addParkingRow(w, rng, -6, -7.5, 6, 5.5, math.Pi/2)
	addParkingRow(w, rng, -3, 16.5, 5, 5.5, -math.Pi/2) // second row, mostly hidden
	w.AddBuilding(12, 30, 40, 12, 7, 0)
	w.AddTree(-14, 0)

	sc.Poses = []geom.Transform{
		VehiclePose(0, 0, 0),    // car1
		VehiclePose(5.5, 0, 0),  // car2: Δd = 5.5
		VehiclePose(14.5, 0, 0), // car3: Δd = 14.5
		VehiclePose(26.9, 0, 0), // car4: Δd = 26.9
	}
	sc.PoseLabels = []string{"car1", "car2", "car3", "car4"}
	sc.Cases = []CoopCase{
		{Name: "car1+2", I: 0, J: 1},
		{Name: "car1+3", I: 0, J: 2},
		{Name: "car1+4", I: 0, J: 3},
	}
	return sc
}

func tjScenario2() *Scenario {
	sc := tjBase("TJ-Scenario 2", 202)
	// All placement jitter derives from the scenario's fixed seed — same
	// seed, same world bytes (randsource allowlist: explicitly seeded source).
	rng := rand.New(rand.NewSource(sc.Seed))
	w := sc.Scene

	// A sparser corner of the lot: scattered cars with a central truck
	// splitting the views.
	addParkingRow(w, rng, 2, 9, 4, 6.0, -math.Pi/2)
	w.AddTruck(12, 0.5, 0)
	w.AddCar(22, -6, 0.3)
	w.AddCar(30, 3, math.Pi/2)
	w.AddCar(33, -8, 0)
	w.AddCar(-8, -6, -0.2)
	w.AddBuilding(18, 22, 36, 10, 6, 0)

	sc.Poses = []geom.Transform{
		VehiclePose(0, 0, 0),                // car1
		VehiclePose(15.03, -2, 0),           // car2
		VehiclePose(32.9, -3.5, math.Pi),    // car3: Δd(1,3) ≈ 33.1
		VehiclePose(14.0, -16.5, math.Pi/2), // car4
		VehiclePose(28.3, -23.0, math.Pi/2), // car5
	}
	sc.PoseLabels = []string{"car1", "car2", "car3", "car4", "car5"}
	sc.Cases = []CoopCase{
		{Name: "car1+2", I: 0, J: 1},
		{Name: "car1+3", I: 0, J: 2},
		{Name: "car3+4", I: 2, J: 3},
		{Name: "car4+5", I: 3, J: 4},
	}
	return sc
}

func tjScenario3() *Scenario {
	sc := tjBase("TJ-Scenario 3", 203)
	// All placement jitter derives from the scenario's fixed seed — same
	// seed, same world bytes (randsource allowlist: explicitly seeded source).
	rng := rand.New(rand.NewSource(sc.Seed))
	w := sc.Scene

	// Road segment around the lot: cars parked kerb-side both ways plus
	// a tree line.
	addParkingRow(w, rng, -4, 5.5, 5, 6.5, 0)
	addParkingRow(w, rng, 4, -5.5, 4, 7.0, math.Pi)
	w.AddTree(-10, 10)
	w.AddTree(14, 11)
	w.AddTree(30, 10)
	w.AddTruck(18, -2.8, 0) // kerb-side truck blocking sight lines
	w.AddCar(30, -4.0, 0)   // hidden behind the truck from car1
	w.AddCar(27.6, 5.2, 0)
	w.AddCar(34, -4.8, math.Pi)
	w.AddBuilding(10, -20, 44, 12, 8, 0)

	sc.Poses = []geom.Transform{
		VehiclePose(0, 0, 0),               // car1
		VehiclePose(4.82, 0, 0),            // car2
		VehiclePose(16.6, 0, 0),            // car3
		VehiclePose(21.8, 0, 0),            // car4
		VehiclePose(21.8+18.7, 0, math.Pi), // car5 facing back toward car4
	}
	sc.PoseLabels = []string{"car1", "car2", "car3", "car4", "car5"}
	sc.Cases = []CoopCase{
		{Name: "car1+2", I: 0, J: 1},
		{Name: "car1+3", I: 0, J: 2},
		{Name: "car1+4", I: 0, J: 3},
		{Name: "car4+5", I: 3, J: 4},
	}
	return sc
}

func tjScenario4() *Scenario {
	sc := tjBase("TJ-Scenario 4", 204)
	// All placement jitter derives from the scenario's fixed seed — same
	// seed, same world bytes (randsource allowlist: explicitly seeded source).
	rng := rand.New(rand.NewSource(sc.Seed))
	w := sc.Scene

	// The fullest scene (Fig. 6d has the most rows): three dense rows and
	// perimeter clutter — a crowded lot where each car sees only its
	// aisle.
	addParkingRow(w, rng, -8, 8, 7, 5.2, -math.Pi/2)
	addParkingRow(w, rng, -8, -8, 7, 5.2, math.Pi/2)
	addParkingRow(w, rng, -5, 17, 6, 5.4, -math.Pi/2) // hidden second row
	w.AddTruck(20, -3.5, 0)
	w.AddCar(30, -4.2, 0.1) // hidden behind the truck from car1
	w.AddCar(30, 1.5, 0.2)
	w.AddBuilding(6, 30, 52, 12, 9, 0)
	w.AddBuilding(6, -26, 40, 10, 6, 0)
	w.AddTree(-16, 2)

	sc.Poses = []geom.Transform{
		VehiclePose(0, 0, 0),    // car1
		VehiclePose(3.9, 0, 0),  // car2
		VehiclePose(9.9, 0, 0),  // car3
		VehiclePose(15.7, 0, 0), // car4
		VehiclePose(23.1, 0, 0), // car5
	}
	sc.PoseLabels = []string{"car1", "car2", "car3", "car4", "car5"}
	sc.Cases = []CoopCase{
		{Name: "car1+2", I: 0, J: 1},
		{Name: "car1+3", I: 0, J: 2},
		{Name: "car1+4", I: 0, J: 3},
		{Name: "car1+5", I: 0, J: 4},
	}
	return sc
}

// AllScenarios returns the full 8-scenario evaluation suite (4 KITTI-like
// + 4 T&J-like), covering the paper's 19 cooperative cases.
func AllScenarios() []*Scenario {
	out := KITTIScenarios()
	return append(out, TJScenarios()...)
}

// Resolve finds the named paper scenario, or generates the named family
// with the given fleet size, seed and ambient traffic (0 = the family's
// default).
func Resolve(name string, fleet int, seed int64, traffic int) (*Scenario, error) {
	if fam, ok := ParseFamily(name); ok {
		return Generate(GenParams{Family: fam, Fleet: fleet, Seed: seed, Traffic: traffic})
	}
	for _, sc := range AllScenarios() {
		if sc.Name == name {
			return sc, nil
		}
	}
	return nil, fmt.Errorf("unknown scenario %q", name)
}

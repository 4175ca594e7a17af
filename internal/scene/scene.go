// Package scene models the 3D environments the LiDAR simulator scans:
// ground, vehicles, vulnerable road users and static occluders, plus
// procedural builders for the eight evaluation scenarios of the paper —
// four KITTI-like road scenes (T-junction, stop sign, left turn, curve;
// Fig. 3) and four T&J-like parking-lot scenes (Fig. 6).
package scene

import (
	"fmt"

	"cooper/internal/geom"
	"cooper/internal/lidar"
)

// Class enumerates scene object categories.
type Class int

// Object classes. Cars are the detection targets of the paper's
// evaluation; everything else shapes the environment and creates the
// occlusion the paper's cooperative perception recovers from.
const (
	ClassCar Class = iota + 1
	ClassTruck
	ClassPedestrian
	ClassCyclist
	ClassBuilding
	ClassTree
	ClassBarrier
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassCar:
		return "car"
	case ClassTruck:
		return "truck"
	case ClassPedestrian:
		return "pedestrian"
	case ClassCyclist:
		return "cyclist"
	case ClassBuilding:
		return "building"
	case ClassTree:
		return "tree"
	case ClassBarrier:
		return "barrier"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Object is a physical thing in the world, approximated by an upright
// oriented box (the same approximation 3D detection ground truth uses).
type Object struct {
	ID           int
	Class        Class
	Box          geom.Box
	Reflectivity float64
}

// Scene is a static snapshot of the world at one instant.
type Scene struct {
	// GroundZ is the ground plane height in world coordinates.
	GroundZ float64
	// Objects holds everything the LiDAR can hit.
	Objects []Object

	nextID int
}

// New returns an empty scene with the ground at z = 0.
func New() *Scene { return &Scene{} }

// Add inserts an object, assigning it a unique ID, and returns that ID.
func (s *Scene) Add(class Class, box geom.Box, reflectivity float64) int {
	id := s.nextID
	s.nextID++
	s.Objects = append(s.Objects, Object{
		ID:           id,
		Class:        class,
		Box:          box,
		Reflectivity: reflectivity,
	})
	return id
}

// Targets converts the scene to the LiDAR simulator's target list.
func (s *Scene) Targets() []lidar.Target {
	out := make([]lidar.Target, len(s.Objects))
	for i, o := range s.Objects {
		out[i] = lidar.Target{Box: o.Box, Reflectivity: o.Reflectivity, ObjectID: o.ID}
	}
	return out
}

// Cars returns the objects of class Car — the paper's detection targets.
func (s *Scene) Cars() []Object {
	var out []Object
	for _, o := range s.Objects {
		if o.Class == ClassCar {
			out = append(out, o)
		}
	}
	return out
}

// Typical object dimensions (metres) and surface reflectivities used by
// the procedural builders. Car dimensions follow the KITTI class means.
const (
	CarLength, CarWidth, CarHeight          = 3.9, 1.6, 1.56
	TruckLength, TruckWidth, TruckHeight    = 8.5, 2.6, 3.2
	PedLength, PedWidth, PedHeight          = 0.5, 0.5, 1.75
	CyclistLength, CyclistWidth, CyclistHgt = 1.8, 0.6, 1.7

	carReflectivity      = 0.55
	truckReflectivity    = 0.5
	pedReflectivity      = 0.4
	cyclistReflectivity  = 0.45
	buildingReflectivity = 0.35
	treeReflectivity     = 0.3
	barrierReflectivity  = 0.45
)

// AddCar adds a car centred at (x, y) on the ground with the given yaw and
// returns its ID.
func (s *Scene) AddCar(x, y, yaw float64) int {
	box := geom.NewBox(geom.V3(x, y, s.GroundZ+CarHeight/2), CarLength, CarWidth, CarHeight, yaw)
	return s.Add(ClassCar, box, carReflectivity)
}

// AddTruck adds a truck (a large occluder) and returns its ID.
func (s *Scene) AddTruck(x, y, yaw float64) int {
	box := geom.NewBox(geom.V3(x, y, s.GroundZ+TruckHeight/2), TruckLength, TruckWidth, TruckHeight, yaw)
	return s.Add(ClassTruck, box, truckReflectivity)
}

// AddPedestrian adds a pedestrian and returns its ID.
func (s *Scene) AddPedestrian(x, y float64) int {
	box := geom.NewBox(geom.V3(x, y, s.GroundZ+PedHeight/2), PedLength, PedWidth, PedHeight, 0)
	return s.Add(ClassPedestrian, box, pedReflectivity)
}

// AddCyclist adds a cyclist and returns its ID.
func (s *Scene) AddCyclist(x, y, yaw float64) int {
	box := geom.NewBox(geom.V3(x, y, s.GroundZ+CyclistHgt/2), CyclistLength, CyclistWidth, CyclistHgt, yaw)
	return s.Add(ClassCyclist, box, cyclistReflectivity)
}

// AddBuilding adds a building footprint of the given length × width ×
// height, centred at (x, y), and returns its ID.
func (s *Scene) AddBuilding(x, y, length, width, height, yaw float64) int {
	box := geom.NewBox(geom.V3(x, y, s.GroundZ+height/2), length, width, height, yaw)
	return s.Add(ClassBuilding, box, buildingReflectivity)
}

// AddTree adds a tree (trunk plus canopy approximated as one box) and
// returns its ID.
func (s *Scene) AddTree(x, y float64) int {
	box := geom.NewBox(geom.V3(x, y, s.GroundZ+3), 2.5, 2.5, 6, 0)
	return s.Add(ClassTree, box, treeReflectivity)
}

// AddBarrier adds a low roadside barrier segment and returns its ID.
func (s *Scene) AddBarrier(x, y, length, yaw float64) int {
	box := geom.NewBox(geom.V3(x, y, s.GroundZ+0.5), length, 0.3, 1.0, yaw)
	return s.Add(ClassBarrier, box, barrierReflectivity)
}

package scene

import (
	"testing"

	"cooper/internal/geom"
)

func TestAddAssignsUniqueIDs(t *testing.T) {
	s := New()
	a := s.AddCar(0, 0, 0)
	b := s.AddCar(10, 0, 0)
	c := s.AddTruck(20, 0, 0)
	if a == b || b == c || a == c {
		t.Errorf("IDs not unique: %d %d %d", a, b, c)
	}
}

func TestCarsFilter(t *testing.T) {
	s := New()
	s.AddCar(0, 0, 0)
	s.AddTruck(10, 0, 0)
	s.AddCar(20, 0, 0)
	s.AddBuilding(30, 0, 10, 10, 5, 0)
	s.AddPedestrian(5, 5)

	cars := s.Cars()
	if len(cars) != 2 {
		t.Fatalf("Cars() = %d, want 2", len(cars))
	}
	for _, c := range cars {
		if c.Class != ClassCar {
			t.Errorf("non-car in Cars(): %v", c.Class)
		}
	}
}

func TestObjectByID(t *testing.T) {
	s := New()
	id := s.AddCar(3, 4, 0.5)
	got, ok := s.ObjectByID(id)
	if !ok {
		t.Fatal("ObjectByID missed existing object")
	}
	if got.Box.Center.X != 3 || got.Box.Center.Y != 4 {
		t.Errorf("wrong object: %+v", got)
	}
	if _, ok := s.ObjectByID(999); ok {
		t.Error("ObjectByID found a nonexistent ID")
	}
}

func TestCarDimensions(t *testing.T) {
	s := New()
	id := s.AddCar(0, 0, 0)
	car, _ := s.ObjectByID(id)
	if car.Box.Length != CarLength || car.Box.Width != CarWidth || car.Box.Height != CarHeight {
		t.Errorf("car box = %+v", car.Box)
	}
	// Cars sit on the ground: bottom at GroundZ.
	if car.Box.BottomZ() != s.GroundZ {
		t.Errorf("car bottom at %v, want %v", car.Box.BottomZ(), s.GroundZ)
	}
}

func TestTargetsMirrorObjects(t *testing.T) {
	s := New()
	s.AddCar(0, 0, 0)
	s.AddTree(5, 5)
	targets := s.Targets()
	if len(targets) != len(s.Objects) {
		t.Fatalf("Targets len = %d, want %d", len(targets), len(s.Objects))
	}
	for i, tg := range targets {
		if tg.ObjectID != s.Objects[i].ID {
			t.Errorf("target %d ID mismatch", i)
		}
		if tg.Reflectivity != s.Objects[i].Reflectivity {
			t.Errorf("target %d reflectivity mismatch", i)
		}
	}
}

func TestClassString(t *testing.T) {
	cases := map[Class]string{
		ClassCar:        "car",
		ClassTruck:      "truck",
		ClassPedestrian: "pedestrian",
		ClassCyclist:    "cyclist",
		ClassBuilding:   "building",
		ClassTree:       "tree",
		ClassBarrier:    "barrier",
		Class(42):       "class(42)",
	}
	for c, want := range cases {
		if got := c.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(c), got, want)
		}
	}
}

func TestVehiclePose(t *testing.T) {
	p := VehiclePose(10, 20, 0.5)
	if p.T != geom.V3(10, 20, 0) {
		t.Errorf("pose translation = %v", p.T)
	}
	if got := p.R.Yaw(); got != 0.5 {
		t.Errorf("pose yaw = %v, want 0.5", got)
	}
}

// ObjectByID returns the object with the given ID.
func (s *Scene) ObjectByID(id int) (Object, bool) {
	for _, o := range s.Objects {
		if o.ID == id {
			return o, true
		}
	}
	return Object{}, false
}

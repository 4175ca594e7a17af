package spod

import (
	"math"
	"math/rand"
	"testing"

	"cooper/internal/geom"
	"cooper/internal/pointcloud"
)

func sphericalTestCloud(n int, seed int64) *pointcloud.Cloud {
	rng := rand.New(rand.NewSource(seed))
	c := pointcloud.New(n)
	for i := 0; i < n; i++ {
		az := rng.Float64()*2*math.Pi - math.Pi
		el := geom.Deg2Rad(rng.Float64()*30 - 20)
		r := 3 + rng.Float64()*60
		c.AppendXYZR(
			r*math.Cos(el)*math.Cos(az),
			r*math.Cos(el)*math.Sin(az),
			r*math.Sin(el),
			rng.Float64(),
		)
	}
	return c
}

func TestProjectSphericalRoundTripGeometry(t *testing.T) {
	cfg := DefaultSphericalConfig()
	cfg.InpaintGaps = false
	c := sphericalTestCloud(2000, 1)
	img := projectSpherical(c, cfg, NewScratch())
	back := img.ToCloud()
	if back.Len() == 0 {
		t.Fatal("empty reprojection")
	}
	// Every reprojected point must preserve its range closely (cell
	// centre quantisation affects direction, not range).
	idx := pointcloud.NewGridIndex(c, 1.0)
	for i := 0; i < back.Len(); i += 25 {
		p := back.At(i)
		_, d := idx.Nearest(p.Pos())
		if d > 0.8 {
			t.Fatalf("reprojected point %v is %v m from any original", p.Pos(), d)
		}
	}
}

func TestProjectSphericalDedups(t *testing.T) {
	// Duplicating a cloud must not double the projected representation.
	cfg := DefaultSphericalConfig()
	cfg.InpaintGaps = false
	c := sphericalTestCloud(3000, 2)
	dup := c.Merge(c.Clone())
	single := projectSpherical(c, cfg, NewScratch()).ToCloud()
	doubled := projectSpherical(dup, cfg, NewScratch()).ToCloud()
	if doubled.Len() > single.Len()*105/100 {
		t.Errorf("duplicate merge grew projection: %d vs %d", doubled.Len(), single.Len())
	}
}

func TestProjectSphericalKeepsSecondEcho(t *testing.T) {
	// Two surfaces along the same ray direction, far apart: both must
	// survive (the property cooperative merging depends on — a hidden
	// car's points live behind the occluder's points).
	cfg := DefaultSphericalConfig()
	cfg.InpaintGaps = false
	c := pointcloud.New(2)
	c.AppendXYZR(10, 0, 0, 0.5)    // near surface
	c.AppendXYZR(30, 0.05, 0, 0.5) // far surface, same cell
	img := projectSpherical(c, cfg, NewScratch())
	back := img.ToCloud()
	if back.Len() != 2 {
		t.Fatalf("expected both echoes, got %d points", back.Len())
	}
}

func TestProjectSphericalDropsThirdSurface(t *testing.T) {
	cfg := DefaultSphericalConfig()
	cfg.InpaintGaps = false
	c := pointcloud.New(3)
	c.AppendXYZR(10, 0, 0, 0.5)
	c.AppendXYZR(30, 0.05, 0, 0.5)
	c.AppendXYZR(50, 0.08, 0, 0.5)
	back := projectSpherical(c, cfg, NewScratch()).ToCloud()
	if back.Len() != 2 {
		t.Fatalf("cell should keep exactly 2 echoes, got %d", back.Len())
	}
	// The kept echoes are the nearest two.
	for i := 0; i < back.Len(); i++ {
		if back.At(i).Range() > 40 {
			t.Errorf("kept the farthest echo instead of the near two")
		}
	}
}

func TestInpaintFillsSingleGaps(t *testing.T) {
	cfg := DefaultSphericalConfig()
	// A horizontal arc of points at constant range with every other
	// azimuth column filled: inpainting should close the single-column
	// gaps.
	c := pointcloud.New(100)
	r := 20.0
	for i := 0; i < 100; i += 2 {
		az := geom.Deg2Rad(float64(i)*0.2 - 10)
		c.AppendXYZR(r*math.Cos(az), r*math.Sin(az), 0, 0.5)
	}
	cfg.InpaintGaps = false
	plain := projectSpherical(c, cfg, NewScratch()).ToCloud()
	cfg.InpaintGaps = true
	inpainted := projectSpherical(c, cfg, NewScratch()).ToCloud()
	if inpainted.Len() <= plain.Len() {
		t.Errorf("inpainting added no points: %d vs %d", inpainted.Len(), plain.Len())
	}
}

func TestInpaintRespectsRangeJump(t *testing.T) {
	cfg := DefaultSphericalConfig()
	cfg.InpaintGaps = true
	// Neighbours at wildly different ranges must not be bridged.
	c := pointcloud.New(2)
	c.AppendXYZR(10, 0, 0, 0.5)
	az := cfg.MaxEl // dummy
	_ = az
	c.AppendXYZR(40*math.Cos(geom.Deg2Rad(0.4)), 40*math.Sin(geom.Deg2Rad(0.4)), 0, 0.5)
	back := projectSpherical(c, cfg, NewScratch()).ToCloud()
	if back.Len() != 2 {
		t.Errorf("range jump was bridged: %d points", back.Len())
	}
}

func TestOccupied(t *testing.T) {
	cfg := DefaultSphericalConfig()
	cfg.InpaintGaps = false
	c := pointcloud.New(2)
	c.AppendXYZR(10, 0, 0, 0.5)
	c.AppendXYZR(0, 15, 1, 0.5)
	img := projectSpherical(c, cfg, NewScratch())
	if got := img.Occupied(); got != 2 {
		t.Errorf("Occupied = %d, want 2", got)
	}
}

func TestProjectEmptyCloud(t *testing.T) {
	img := projectSpherical(&pointcloud.Cloud{}, DefaultSphericalConfig(), NewScratch())
	if img.Occupied() != 0 || img.ToCloud().Len() != 0 {
		t.Error("empty cloud should produce empty image")
	}
}

package fusion

import (
	"math"
	"math/rand"
	"testing"

	"cooper/internal/geom"
	"cooper/internal/pointcloud"
)

// structuredCloud builds a cloud with walls and box-like structure so ICP
// has features to register on, plus a ground plane it must ignore.
func structuredCloud(seed int64) *pointcloud.Cloud {
	rng := rand.New(rand.NewSource(seed))
	c := pointcloud.New(3000)
	// Ground.
	for i := 0; i < 1200; i++ {
		c.AppendXYZR(rng.Float64()*40-20, rng.Float64()*40-20, -1.73+rng.NormFloat64()*0.01, 0.2)
	}
	// Two perpendicular walls.
	for i := 0; i < 700; i++ {
		c.AppendXYZR(10+rng.NormFloat64()*0.02, rng.Float64()*16-8, rng.Float64()*2-1.5, 0.4)
	}
	for i := 0; i < 700; i++ {
		c.AppendXYZR(rng.Float64()*16-8, 12+rng.NormFloat64()*0.02, rng.Float64()*2-1.5, 0.4)
	}
	// A car-like box cluster.
	for i := 0; i < 400; i++ {
		c.AppendXYZR(-5+rng.Float64()*3.9, -6+rng.Float64()*1.6, -1.5+rng.Float64()*1.4, 0.5)
	}
	return c
}

func TestRefineAlignmentRecoversOffset(t *testing.T) {
	ref := structuredCloud(1)
	offset := geom.NewTransform(0, 0, 0, geom.V3(0.25, -0.18, 0))
	src := ref.Transform(offset)

	corr := newICPReference(ref, DefaultICPConfig()).refine(src)
	// The correction should approximately invert the offset.
	want := offset.Inverse()
	if math.Abs(corr.T.X-want.T.X) > 0.06 || math.Abs(corr.T.Y-want.T.Y) > 0.06 {
		t.Errorf("correction T = %v, want ≈ %v", corr.T, want.T)
	}
}

func TestRefineAlignmentRecoversSmallYaw(t *testing.T) {
	ref := structuredCloud(2)
	offset := geom.NewTransform(0.02, 0, 0, geom.V3(0.1, 0.1, 0))
	src := ref.Transform(offset)

	corr := newICPReference(ref, DefaultICPConfig()).refine(src)
	residual := corr.Compose(offset)
	if math.Abs(residual.R.Yaw()) > 0.008 {
		t.Errorf("residual yaw = %v rad", residual.R.Yaw())
	}
	if residual.T.Norm() > 0.08 {
		t.Errorf("residual translation = %v", residual.T.Norm())
	}
}

func TestRefineAlignmentIdentityWhenAligned(t *testing.T) {
	ref := structuredCloud(3)
	corr := newICPReference(ref, DefaultICPConfig()).refine(ref.Clone())
	if corr.T.Norm() > 0.02 || math.Abs(corr.R.Yaw()) > 0.002 {
		t.Errorf("already-aligned correction = %+v", corr)
	}
}

func TestRefineAlignmentEmptyClouds(t *testing.T) {
	empty := &pointcloud.Cloud{}
	if corr := newICPReference(empty, DefaultICPConfig()).refine(empty); !corr.AlmostEqual(geom.IdentityTransform(), 1e-12) {
		t.Error("empty clouds should yield identity")
	}
	ref := structuredCloud(4)
	if corr := newICPReference(ref, DefaultICPConfig()).refine(empty); !corr.AlmostEqual(geom.IdentityTransform(), 1e-12) {
		t.Error("empty source should yield identity")
	}
}

func TestRefineAlignmentImprovesDriftedFusion(t *testing.T) {
	// End-to-end: a doubled-drift misalignment (~0.28 m) refined by ICP
	// should shrink below the baseline GPS bound.
	ref := structuredCloud(5)
	drift := geom.NewTransform(0, 0, 0, geom.V3(0.2, 0.2, 0))
	src := ref.Transform(drift)
	corr := newICPReference(ref, DefaultICPConfig()).refine(src)
	residual := corr.Compose(drift)
	if residual.T.Norm() > MaxGPSDrift {
		t.Errorf("post-ICP residual %v m, want < %v m", residual.T.Norm(), MaxGPSDrift)
	}
}

// degeneratePairs builds correspondence slices for the rigid-fit
// degeneracy table.
func degeneratePairs(shape string, n int) (sxs, sys, rxs, rys []float64) {
	for i := 0; i < n; i++ {
		f := float64(i)
		var x, y float64
		switch shape {
		case "coincident":
			x, y = 3, -2 // every pair at one point
		case "collinear":
			x, y = f*0.5, f*0.25 // a perfect line
		case "spread", "spread-vs-line":
			x, y = math.Cos(f)*4, math.Sin(f*1.7)*3
		}
		sxs = append(sxs, x)
		sys = append(sys, y)
		if shape == "spread-vs-line" {
			// A well-spread source matched against a thin wall: every
			// reference point sits on one line.
			rxs = append(rxs, 8)
			rys = append(rys, f*0.3)
			continue
		}
		rxs = append(rxs, x+0.1) // a pure translation to recover
		rys = append(rys, y-0.2)
	}
	return
}

func TestRigidFit2DDegenerateSets(t *testing.T) {
	cases := []struct {
		name  string
		shape string
		n     int
		ok    bool
	}{
		{"too few pairs", "spread", minPairs - 1, false},
		{"exactly min pairs", "spread", minPairs, true},
		{"coincident", "coincident", 40, false},
		{"collinear", "collinear", 40, false},
		{"collinear reference only", "spread-vs-line", 40, false},
		{"well spread", "spread", 40, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sxs, sys, rxs, rys := degeneratePairs(tc.shape, tc.n)
			dyaw, tx, ty, ok := rigidFit2D(sxs, sys, rxs, rys)
			if ok != tc.ok {
				t.Fatalf("ok = %v, want %v", ok, tc.ok)
			}
			if !ok {
				if dyaw != 0 || tx != 0 || ty != 0 {
					t.Fatalf("degenerate fit leaked a transform: yaw=%v t=(%v,%v)", dyaw, tx, ty)
				}
				return
			}
			if math.Abs(dyaw) > 1e-9 || math.Abs(tx-0.1) > 1e-9 || math.Abs(ty+0.2) > 1e-9 {
				t.Fatalf("fit = yaw %v, t (%v, %v); want yaw 0, t (0.1, -0.2)", dyaw, tx, ty)
			}
		})
	}
}

func TestRigidFit2DNearCoincidentNoise(t *testing.T) {
	// Pairs jittered by micrometres around one point: the scatter gate
	// must fire before Atan2 turns the noise into a yaw.
	rng := rand.New(rand.NewSource(9))
	var sxs, sys, rxs, rys []float64
	for i := 0; i < 30; i++ {
		sxs = append(sxs, 5+rng.NormFloat64()*1e-7)
		sys = append(sys, 1+rng.NormFloat64()*1e-7)
		rxs = append(rxs, 6+rng.NormFloat64()*1e-7)
		rys = append(rys, 2+rng.NormFloat64()*1e-7)
	}
	if _, _, _, ok := rigidFit2D(sxs, sys, rxs, rys); ok {
		t.Fatal("near-coincident pair heap accepted")
	}
}

func TestRefineAlignmentDegenerateGeometry(t *testing.T) {
	// End-to-end: clouds whose elevated structure is a single thin wall
	// (everything the pair gatherer sees is collinear) must yield the
	// identity correction, not a noise-driven yaw.
	wall := func(seed int64) *pointcloud.Cloud {
		rng := rand.New(rand.NewSource(seed))
		c := pointcloud.New(1500)
		for i := 0; i < 800; i++ { // ground
			c.AppendXYZR(rng.Float64()*30-15, rng.Float64()*30-15, -1.73+rng.NormFloat64()*0.005, 0.2)
		}
		for i := 0; i < 500; i++ { // one wall along y, no x spread
			c.AppendXYZR(8, rng.Float64()*12-6, rng.Float64()*2-1.4, 0.4)
		}
		return c
	}
	corr := newICPReference(wall(21), DefaultICPConfig()).refine(wall(22))
	if !corr.AlmostEqual(geom.IdentityTransform(), 1e-12) {
		t.Errorf("collinear geometry produced correction %+v, want identity", corr)
	}
}

package roi

import (
	"math"
	"math/rand"
	"testing"

	"cooper/internal/geom"
	"cooper/internal/pointcloud"
)

func ringCloud(n int, seed int64) *pointcloud.Cloud {
	rng := rand.New(rand.NewSource(seed))
	c := pointcloud.New(n)
	for i := 0; i < n; i++ {
		az := rng.Float64()*2*math.Pi - math.Pi
		r := 5 + rng.Float64()*40
		c.AppendXYZR(r*math.Cos(az), r*math.Sin(az), rng.Float64()*2-1.7, rng.Float64())
	}
	return c
}

func TestExtractFullFrame(t *testing.T) {
	c := ringCloud(1000, 1)
	got := Extract(c, CategoryFullFrame)
	if got.Len() != c.Len() {
		t.Errorf("full frame kept %d of %d points", got.Len(), c.Len())
	}
}

func TestExtractFrontFOV(t *testing.T) {
	c := ringCloud(4000, 2)
	got := Extract(c, CategoryFrontFOV)
	// 120° of 360° ⇒ about one third of a uniform ring.
	frac := float64(got.Len()) / float64(c.Len())
	if frac < 0.28 || frac > 0.39 {
		t.Errorf("front FOV kept %.2f of points, want ≈ 1/3", frac)
	}
	for _, p := range got.Points() {
		az := math.Atan2(p.Y, p.X)
		if math.Abs(az) > FrontFOVHalfAngle+1e-9 {
			t.Fatalf("point at azimuth %v outside 120° FOV", geom.Rad2Deg(az))
		}
	}
}

func TestExtractLeadViewSameRegionAsFront(t *testing.T) {
	c := ringCloud(1000, 3)
	front := Extract(c, CategoryFrontFOV)
	lead := Extract(c, CategoryLeadView)
	if front.Len() != lead.Len() {
		t.Errorf("lead view region differs from front FOV: %d vs %d", lead.Len(), front.Len())
	}
}

func TestTransmissions(t *testing.T) {
	if Transmissions(CategoryFullFrame) != 2 {
		t.Error("full frame should be mutual")
	}
	if Transmissions(CategoryFrontFOV) != 2 {
		t.Error("front FOV should be mutual")
	}
	if Transmissions(CategoryLeadView) != 1 {
		t.Error("lead view should be one-way")
	}
}

func TestCategoryString(t *testing.T) {
	for _, c := range []Category{CategoryFullFrame, CategoryFrontFOV, CategoryLeadView, Category(9)} {
		if c.String() == "" {
			t.Errorf("empty string for category %d", int(c))
		}
	}
}

func TestPayloadOrdering(t *testing.T) {
	// Costs must order full frame > front FOV; lead view equals front FOV
	// per frame but halves the transmissions.
	c := ringCloud(20000, 4)
	full, err := PayloadBytes(c, CategoryFullFrame)
	if err != nil {
		t.Fatal(err)
	}
	front, err := PayloadBytes(c, CategoryFrontFOV)
	if err != nil {
		t.Fatal(err)
	}
	if full <= front {
		t.Errorf("full=%d should exceed front=%d", full, front)
	}
	fullTotal := full * Transmissions(CategoryFullFrame)
	frontTotal := front * Transmissions(CategoryFrontFOV)
	leadTotal := front * Transmissions(CategoryLeadView)
	if !(fullTotal > frontTotal && frontTotal > leadTotal) {
		t.Errorf("total costs not ordered: %d, %d, %d", fullTotal, frontTotal, leadTotal)
	}
}

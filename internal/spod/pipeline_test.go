package spod

import (
	"math"
	"math/rand"
	"testing"

	"cooper/internal/geom"
	"cooper/internal/pointcloud"
)

// syntheticCar appends LiDAR-like returns on a car's rear face and one
// side, plus roof sprinkle — the L-shaped observation a single viewpoint
// yields.
func syntheticCar(c *pointcloud.Cloud, rng *rand.Rand, cx, cy, yaw float64, density int) {
	cos, sin := math.Cos(yaw), math.Sin(yaw)
	add := func(lx, ly, z float64) {
		c.AppendXYZR(
			cx+cos*lx-sin*ly+rng.NormFloat64()*0.01,
			cy+sin*lx+cos*ly+rng.NormFloat64()*0.01,
			z+rng.NormFloat64()*0.01,
			0.5,
		)
	}
	for i := 0; i < density; i++ {
		// Rear face (lx = -1.95).
		add(-1.95, rng.Float64()*1.6-0.8, -1.7+rng.Float64()*1.4)
		// Left side (ly = 0.8).
		add(rng.Float64()*3.9-1.95, 0.8, -1.7+rng.Float64()*1.4)
	}
	for i := 0; i < density/3; i++ {
		add(rng.Float64()*3.9-1.95, rng.Float64()*1.6-0.8, -0.18)
	}
}

// syntheticGround covers a disc with road returns at z = -1.73.
func syntheticGround(c *pointcloud.Cloud, rng *rand.Rand, radius float64, n int) {
	for i := 0; i < n; i++ {
		az := rng.Float64() * 2 * math.Pi
		r := math.Sqrt(rng.Float64()) * radius
		c.AppendXYZR(r*math.Cos(az), r*math.Sin(az), -1.73+rng.NormFloat64()*0.01, 0.2)
	}
}

func sceneWithCars(seed int64, density int, cars ...[3]float64) *pointcloud.Cloud {
	rng := rand.New(rand.NewSource(seed))
	c := pointcloud.New(20000)
	syntheticGround(c, rng, 60, 8000)
	for _, car := range cars {
		syntheticCar(c, rng, car[0], car[1], car[2], density)
	}
	return c
}

func TestDetectSingleCar(t *testing.T) {
	cloud := sceneWithCars(1, 120, [3]float64{12, 3, 0.4})
	dets, _ := NewDefault().Detect(cloud, nil, nil)
	if len(dets) != 1 {
		t.Fatalf("detections = %d, want 1", len(dets))
	}
	d := dets[0]
	want := geom.NewBox(geom.V3(12, 3, -1.73+0.78), 3.9, 1.6, 1.56, 0.4)
	if iou := geom.IoUBEV(d.Box, want); iou < 0.7 {
		t.Errorf("IoU vs truth = %.2f (box %v)", iou, d.Box)
	}
	if d.Score < 0.6 {
		t.Errorf("dense car score = %.2f, want ≥ 0.6", d.Score)
	}
}

func TestDetectMultipleCars(t *testing.T) {
	cloud := sceneWithCars(2, 100,
		[3]float64{10, 5, 0},
		[3]float64{15, -8, 1.2},
		[3]float64{25, 2, -0.5},
	)
	dets, _ := NewDefault().Detect(cloud, nil, nil)
	if len(dets) != 3 {
		t.Fatalf("detections = %d, want 3", len(dets))
	}
}

func TestScoreMonotoneInDensity(t *testing.T) {
	// The core SPOD property the paper relies on: more point evidence on
	// the same car never lowers its score.
	var prev float64
	for i, density := range []int{15, 40, 120, 300} {
		cloud := sceneWithCars(3, density, [3]float64{14, 0, 0.2})
		dets, _ := NewDefault().Detect(cloud, nil, nil)
		if len(dets) == 0 {
			if density >= 40 {
				t.Fatalf("density %d: no detection", density)
			}
			continue
		}
		if dets[0].Score+1e-9 < prev {
			t.Errorf("density step %d: score %.3f dropped below %.3f", i, dets[0].Score, prev)
		}
		prev = dets[0].Score
	}
}

func TestSparseCarMissed(t *testing.T) {
	// A car with almost no returns (heavy occlusion) must be missed —
	// the "X" cells of the paper's matrices.
	cloud := sceneWithCars(4, 2, [3]float64{30, 0, 0})
	dets, _ := NewDefault().Detect(cloud, nil, nil)
	for _, d := range dets {
		if d.Box.Center.DistXY(geom.V3(30, 0, 0)) < 3 {
			t.Errorf("3-point car detected with score %.2f", d.Score)
		}
	}
}

func TestMergedCloudsRecoverCar(t *testing.T) {
	// Two sparse views of the same car, each insufficient alone, detect
	// after merging — the paper's hard-object recovery.
	viewA := sceneWithCars(5, 7, [3]float64{18, 2, 0.3})
	viewB := sceneWithCars(6, 7, [3]float64{18, 2, 0.3})
	det := NewDefault()

	mergedCfg := CoopConfig(DefaultConfig(), 0)
	merged := New(mergedCfg)

	detsA, _ := det.Detect(viewA, nil, nil)
	detsB, _ := det.Detect(viewB, nil, nil)
	detsM, _ := merged.Detect(viewA.Merge(viewB), nil, nil)
	nA, nB, nM := len(detsA), len(detsB), len(detsM)
	if nM < nA || nM < nB {
		t.Errorf("merged detections %d < singles (%d, %d)", nM, nA, nB)
	}
	if nA == 0 && nB == 0 && nM == 0 {
		t.Skip("views too sparse for recovery in this configuration")
	}
}

func TestTruckRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := pointcloud.New(10000)
	syntheticGround(c, rng, 50, 6000)
	// A truck-sized box: 8.5 × 2.6 × 3.2.
	for i := 0; i < 600; i++ {
		c.AppendXYZR(12+rng.Float64()*0.05, rng.Float64()*2.6-1.3, -1.7+rng.Float64()*3.0, 0.5)
		c.AppendXYZR(12+rng.Float64()*8.5, 1.3, -1.7+rng.Float64()*3.0, 0.5)
	}
	dets, _ := NewDefault().Detect(c, nil, nil)
	if len(dets) != 0 {
		t.Errorf("truck produced %d car detections", len(dets))
	}
}

func TestPedestrianRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	c := pointcloud.New(10000)
	syntheticGround(c, rng, 40, 6000)
	for i := 0; i < 150; i++ {
		c.AppendXYZR(8+rng.Float64()*0.4, rng.Float64()*0.4, -1.73+rng.Float64()*1.75, 0.4)
	}
	dets, _ := NewDefault().Detect(c, nil, nil)
	if len(dets) != 0 {
		t.Errorf("pedestrian produced %d car detections", len(dets))
	}
}

func TestEmptyCloudNoDetections(t *testing.T) {
	dets, stats := NewDefault().Detect(&pointcloud.Cloud{}, nil, nil)
	if len(dets) != 0 {
		t.Errorf("empty cloud produced detections")
	}
	if stats.InputPoints != 0 {
		t.Errorf("stats.InputPoints = %d", stats.InputPoints)
	}
}

func TestGroundOnlyNoDetections(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	c := pointcloud.New(8000)
	syntheticGround(c, rng, 50, 8000)
	if dets, _ := NewDefault().Detect(c, nil, nil); len(dets) != 0 {
		t.Errorf("bare ground produced %d detections", len(dets))
	}
}

func TestDetectDeterministic(t *testing.T) {
	cloud := sceneWithCars(10, 80, [3]float64{10, -4, 0.9}, [3]float64{22, 6, 0})
	a, _ := NewDefault().Detect(cloud, nil, nil)
	b, _ := NewDefault().Detect(cloud, nil, nil)
	if len(a) != len(b) {
		t.Fatalf("non-deterministic count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("detection %d differs across runs", i)
		}
	}
}

func TestStatsPopulated(t *testing.T) {
	cloud := sceneWithCars(11, 100, [3]float64{12, 0, 0})
	_, st := NewDefault().Detect(cloud, nil, nil)
	if st.InputPoints == 0 || st.VoxelCount == 0 || st.ProposalCount == 0 {
		t.Errorf("stats incomplete: %+v", st)
	}
	if st.Total <= 0 {
		t.Error("total time not measured")
	}
	if st.Total < st.PreprocessTime {
		t.Error("total < preprocess stage")
	}
}

func TestVerticalFOVTruncationGate(t *testing.T) {
	// A tall object whose top is clipped by a low vertical FOV must be
	// rejected even though its visible height looks car-like.
	rng := rand.New(rand.NewSource(12))
	c := pointcloud.New(10000)
	syntheticGround(c, rng, 40, 6000)
	// Tree trunk/canopy at 12 m: points only up to the +2° HDL-64 ceiling,
	// z ≤ 12·tan(2°) ≈ 0.42 above sensor → visible height ≈ 2.1 m.
	fovTop := geom.Deg2Rad(2)
	maxZ := 12 * math.Tan(fovTop)
	for i := 0; i < 500; i++ {
		c.AppendXYZR(12+rng.Float64()*2.0, rng.Float64()*2.0-1.0, -1.73+rng.Float64()*(maxZ+1.73), 0.3)
	}
	cfg := DefaultConfig()
	cfg.VerticalFOVTop = fovTop
	if dets, _ := New(cfg).Detect(c, nil, nil); len(dets) != 0 {
		t.Errorf("FOV-truncated tall object detected as car (%d dets)", len(dets))
	}
}

func TestClusterBaselineDetectsDenseCar(t *testing.T) {
	// The baseline handles complete observations: give it the full car
	// outline (all four faces), as a merged multi-view would produce.
	rng := rand.New(rand.NewSource(13))
	c := pointcloud.New(20000)
	syntheticGround(c, rng, 40, 8000)
	for i := 0; i < 250; i++ {
		lx := rng.Float64()*3.9 - 1.95
		ly := rng.Float64()*1.6 - 0.8
		z := -1.7 + rng.Float64()*1.4
		c.AppendXYZR(10+lx, 2+0.8, z, 0.5)
		c.AppendXYZR(10+lx, 2-0.8, z, 0.5)
		c.AppendXYZR(10+1.95, 2+ly, z, 0.5)
		c.AppendXYZR(10-1.95, 2+ly, z, 0.5)
	}
	dets := NewClusterDetector().Detect(c)
	if len(dets) != 1 {
		t.Fatalf("baseline detections = %d, want 1", len(dets))
	}
}

func TestClusterBaselineWorseOnPartialViews(t *testing.T) {
	// A rear-face-only observation: SPOD's anchor model detects it, the
	// rigid-gate baseline cannot — the paper's §III-B motivation.
	rng := rand.New(rand.NewSource(14))
	c := pointcloud.New(12000)
	syntheticGround(c, rng, 40, 6000)
	for i := 0; i < 250; i++ {
		// Only the rear face: 1.6 m wide, no side.
		c.AppendXYZR(15+rng.NormFloat64()*0.02, rng.Float64()*1.6-0.8, -1.7+rng.Float64()*1.45, 0.5)
	}
	spodDets, _ := NewDefault().Detect(c, nil, nil)
	baseDets := NewClusterDetector().Detect(c)
	if len(spodDets) == 0 {
		t.Error("SPOD missed the partial view")
	}
	if len(baseDets) != 0 {
		t.Error("rigid baseline unexpectedly fitted a partial view")
	}
}

func TestNMSSuppressesDuplicates(t *testing.T) {
	d1 := Detection{Box: geom.NewBox(geom.V3(10, 0, 0), 3.9, 1.6, 1.56, 0), Score: 0.9, NumPoints: 100}
	d2 := Detection{Box: geom.NewBox(geom.V3(10.2, 0.1, 0), 3.9, 1.6, 1.56, 0.05), Score: 0.7, NumPoints: 60}
	d3 := Detection{Box: geom.NewBox(geom.V3(30, 0, 0), 3.9, 1.6, 1.56, 0), Score: 0.8, NumPoints: 80}
	out := nms([]Detection{d1, d2, d3}, 0.1)
	if len(out) != 2 {
		t.Fatalf("nms kept %d, want 2", len(out))
	}
	if out[0].Score != 0.9 || out[1].Score != 0.8 {
		t.Errorf("nms kept wrong detections: %+v", out)
	}
}

func TestNMSIoMSuppression(t *testing.T) {
	// A small box riding on the face of a larger accepted one is
	// suppressed even at low IoU.
	big := Detection{Box: geom.NewBox(geom.V3(10, 0, 0), 3.9, 1.6, 1.56, 0), Score: 0.9}
	small := Detection{Box: geom.NewBox(geom.V3(8.6, 0, 0), 1.2, 1.2, 1.56, 0), Score: 0.6}
	out := nms([]Detection{big, small}, 0.3)
	if len(out) != 1 {
		t.Errorf("IoM suppression failed: kept %d", len(out))
	}
}

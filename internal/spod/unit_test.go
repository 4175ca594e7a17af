package spod

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"cooper/internal/geom"
	"cooper/internal/pointcloud"
)

func TestVoxelizeFeatures(t *testing.T) {
	c := pointcloud.FromPoints([]pointcloud.Point{
		{X: 0.05, Y: 0.05, Z: 0.1, Reflectance: 0.2},
		{X: 0.15, Y: 0.05, Z: 0.3, Reflectance: 0.6},
		{X: 5, Y: 5, Z: 1, Reflectance: 1.0},
	})
	g := Voxelize(c, 0.2, 0.5, 0, 1)
	if g.OccupiedVoxels() != 2 {
		t.Fatalf("occupied = %d, want 2", g.OccupiedVoxels())
	}
	f, ok := g.Feature(pointcloud.VoxelKey{X: 0, Y: 0, Z: 0})
	if !ok {
		t.Fatal("missing first voxel")
	}
	if f.Count != 2 {
		t.Errorf("count = %d, want 2", f.Count)
	}
	if math.Abs(f.MeanZ-0.2) > 1e-12 {
		t.Errorf("meanZ = %v, want 0.2", f.MeanZ)
	}
	if math.Abs(f.SpanZ-0.2) > 1e-12 {
		t.Errorf("spanZ = %v, want 0.2", f.SpanZ)
	}
	if math.Abs(f.MeanIntensity-0.4) > 1e-12 {
		t.Errorf("meanIntensity = %v, want 0.4", f.MeanIntensity)
	}
	if math.Abs(f.Density-math.Log1p(2)) > 1e-12 {
		t.Errorf("density = %v", f.Density)
	}
}

func TestVoxelizeGroundRelativeHeights(t *testing.T) {
	c := pointcloud.FromPoints([]pointcloud.Point{{X: 0, Y: 0, Z: -1.5}})
	g := Voxelize(c, 0.2, 0.25, -1.73, 1)
	for _, f := range g.Feats {
		if math.Abs(f.MeanZ-0.23) > 1e-9 {
			t.Errorf("ground-relative meanZ = %v, want 0.23", f.MeanZ)
		}
	}
}

func TestVoxelizeColumnPoints(t *testing.T) {
	c := pointcloud.FromPoints([]pointcloud.Point{
		{X: 0.1, Y: 0.1, Z: 0.1},
		{X: 0.1, Y: 0.1, Z: 2.0}, // same column, different z voxel
	})
	g := Voxelize(c, 0.2, 0.25, 0, 1)
	if got := len(g.ColumnPoints(0, 0)); got != 2 {
		t.Errorf("column points = %d, want 2", got)
	}
}

func TestGaussianKernelNormalised(t *testing.T) {
	k := gaussianKernel()
	sum := 0.0
	for dz := 0; dz < 3; dz++ {
		for dy := 0; dy < 3; dy++ {
			for dx := 0; dx < 3; dx++ {
				sum += k[dz][dy][dx]
			}
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("kernel sum = %v, want 1", sum)
	}
	if k[1][1][1] <= k[0][0][0] {
		t.Error("kernel not centre-weighted")
	}
}

func TestSparseConvPreservesSites(t *testing.T) {
	// Submanifold convolution: output sites == input sites.
	in := tensorFromMap(map[pointcloud.VoxelKey][]float64{
		{X: 0, Y: 0, Z: 0}: {1, 0.5, 0.2},
		{X: 5, Y: 5, Z: 1}: {2, 1.0, 0.4},
	})
	out := DefaultMiddleLayers()[0].Apply(in)
	if out.Sites() != in.Sites() {
		t.Fatalf("site count changed: %d -> %d", in.Sites(), out.Sites())
	}
	for _, k := range []pointcloud.VoxelKey{{X: 0, Y: 0, Z: 0}, {X: 5, Y: 5, Z: 1}} {
		if _, ok := out.FeatureAt(k); !ok {
			t.Errorf("site %v vanished", k)
		}
	}
}

func TestSparseConvSmoothsNeighbours(t *testing.T) {
	// Two adjacent occupied voxels reinforce each other: each output
	// exceeds what an isolated voxel of the same value gets.
	isolated := tensorFromMap(map[pointcloud.VoxelKey][]float64{
		{X: 0, Y: 0, Z: 0}: {1, 0, 0},
	})
	pair := tensorFromMap(map[pointcloud.VoxelKey][]float64{
		{X: 0, Y: 0, Z: 0}: {1, 0, 0},
		{X: 1, Y: 0, Z: 0}: {1, 0, 0},
	})
	layer := DefaultMiddleLayers()[0]
	isoF, _ := layer.Apply(isolated).FeatureAt(pointcloud.VoxelKey{})
	jointF, _ := layer.Apply(pair).FeatureAt(pointcloud.VoxelKey{})
	if jointF[0] <= isoF[0] {
		t.Errorf("neighbour did not reinforce: %v <= %v", jointF[0], isoF[0])
	}
}

func TestSparseConvReLU(t *testing.T) {
	w := ConvWeights{
		Spatial: gaussianKernel(),
		Mix:     [3][3]float64{{-1, 0, 0}, {0, 1, 0}, {0, 0, 1}},
	}
	in := tensorFromMap(map[pointcloud.VoxelKey][]float64{
		{X: 0, Y: 0, Z: 0}: {1, 0, 0},
	})
	out, _ := w.Apply(in).FeatureAt(pointcloud.VoxelKey{})
	if out[0] != 0 {
		t.Errorf("negative activation survived ReLU: %v", out[0])
	}
}

func TestProjectBEVColumnAggregation(t *testing.T) {
	g := &VoxelGrid{SizeXY: 0.2, SizeZ: 0.25}
	tensor := tensorFromMap(map[pointcloud.VoxelKey][]float64{
		{X: 3, Y: 4, Z: 0}: {1.0, 0, 0},
		{X: 3, Y: 4, Z: 5}: {0.5, 0, 0},
		{X: 9, Y: 9, Z: 2}: {2.0, 0, 0},
	})
	bev := projectBEV(tensor, g)
	if bev.Len() != 2 {
		t.Fatalf("BEV cells = %d, want 2", bev.Len())
	}
	obj, topZ, ok := bev.CellAt(pointcloud.VoxelKey{X: 3, Y: 4})
	if !ok {
		t.Fatal("missing BEV cell (3, 4)")
	}
	if math.Abs(obj-1.5) > 1e-12 {
		t.Errorf("objectness = %v, want 1.5", obj)
	}
	if math.Abs(topZ-6*0.25) > 1e-12 {
		t.Errorf("topZ = %v, want 1.5", topZ)
	}
}

func TestProposalComponentsConnectivity(t *testing.T) {
	m := bevFromMap(0.2, map[pointcloud.VoxelKey]float64{
		{X: 0, Y: 0}:   1,
		{X: 1, Y: 1}:   1,     // diagonal: same component
		{X: 20, Y: 20}: 1,     // far: separate
		{X: 5, Y: 5}:   0.001, // below threshold
	})
	comps := proposalComponents(m, 0.05)
	if comps.Len() != 2 {
		t.Fatalf("components = %d, want 2", comps.Len())
	}
}

func TestMinAreaYawAlignsWithRectangle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, trueYaw := range []float64{0, 0.3, 0.9, 1.4} {
		var cp clusterPoints
		c, s := math.Cos(trueYaw), math.Sin(trueYaw)
		// L-shape: one long side and one short face.
		for i := 0; i < 200; i++ {
			lx := rng.Float64()*3.9 - 1.95
			cp.xs = append(cp.xs, c*lx-s*0.8)
			cp.ys = append(cp.ys, s*lx+c*0.8)
			cp.zs = append(cp.zs, rng.Float64())
		}
		for i := 0; i < 80; i++ {
			ly := rng.Float64()*1.6 - 0.8
			cp.xs = append(cp.xs, c*(-1.95)-s*ly)
			cp.ys = append(cp.ys, s*(-1.95)+c*ly)
			cp.zs = append(cp.zs, rng.Float64())
		}
		got := cp.minAreaYaw()
		diff := math.Abs(geom.WrapAngle(got - trueYaw))
		for diff > math.Pi/4 {
			diff = math.Abs(diff - math.Pi/2)
		}
		if diff > geom.Deg2Rad(4) {
			t.Errorf("yaw %v: fitted %v (diff %.1f°)", trueYaw, got, geom.Rad2Deg(diff))
		}
	}
}

func TestSplitClusterSeparatesQueue(t *testing.T) {
	// Two bumper-to-bumper cars along x: one 9 m cluster must split.
	rng := rand.New(rand.NewSource(22))
	var cp clusterPoints
	for i := 0; i < 400; i++ {
		cp.xs = append(cp.xs, rng.Float64()*9)
		cp.ys = append(cp.ys, rng.Float64()*1.6)
		cp.zs = append(cp.zs, rng.Float64())
	}
	subs := splitCluster(cp)
	if len(subs) < 2 {
		t.Errorf("9 m cluster split into %d pieces, want ≥ 2", len(subs))
	}
}

func TestSplitClusterKeepsSingleCar(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var cp clusterPoints
	for i := 0; i < 200; i++ {
		cp.xs = append(cp.xs, rng.Float64()*3.9)
		cp.ys = append(cp.ys, rng.Float64()*1.6)
		cp.zs = append(cp.zs, rng.Float64())
	}
	if subs := splitCluster(cp); len(subs) != 1 {
		t.Errorf("single car split into %d pieces", len(subs))
	}
}

func TestScoreWeightsMonotone(t *testing.T) {
	w := DefaultScoreWeights()
	base := fitStats{n: 50, coverage: 0.15, heightSpan: 0.8, heightTop: 1.2, extAlongL: 2.0, extAlongW: 1.0}
	s0 := w.Score(base)

	more := base
	more.n = 200
	if w.Score(more) < s0 {
		t.Error("score decreased with more points")
	}
	cov := base
	cov.coverage = 0.3
	if w.Score(cov) < s0 {
		t.Error("score decreased with more coverage")
	}
	tall := base
	tall.heightSpan = 1.3
	tall.heightTop = 1.5
	if w.Score(tall) < s0 {
		t.Error("score decreased with better height profile")
	}
}

func TestScoreBounded(t *testing.T) {
	w := DefaultScoreWeights()
	f := func(n int, cov, span, top float64) bool {
		st := fitStats{
			n:          int(math.Abs(float64(n % 10000))),
			coverage:   math.Abs(math.Mod(cov, 1)),
			heightSpan: math.Abs(math.Mod(span, 3)),
			heightTop:  math.Abs(math.Mod(top, 3)),
			extAlongL:  2,
			extAlongW:  1,
		}
		s := w.Score(st)
		return s >= 0 && s <= w.MaxScore
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAxisConsistency(t *testing.T) {
	if got := axisConsistency(3.9, 3.9); got != 1 {
		t.Errorf("exact match = %v, want 1", got)
	}
	if got := axisConsistency(1.0, 3.9); got != 0.5 {
		t.Errorf("partial = %v, want 0.5", got)
	}
	if got := axisConsistency(5.5, 3.9); got >= 0.5 {
		t.Errorf("exceeding = %v, want < 0.5", got)
	}
	if got := axisConsistency(10, 3.9); got != 0 {
		t.Errorf("wildly exceeding = %v, want 0", got)
	}
}

func TestPlausibleCarGates(t *testing.T) {
	fovTop := geom.Deg2Rad(15)
	good := fitStats{heightTop: 1.5, extentMajor: 3.9, extentMinor: 1.6, topEl: geom.Deg2Rad(-2)}
	plausibleCar := func(st fitStats, fovTop float64) bool {
		return plausibleProfile(st.heightTop, st.topEl, fovTop) && plausibleDims(st)
	}
	if !plausibleCar(good, fovTop) {
		t.Error("typical car rejected")
	}
	cases := map[string]fitStats{
		"too tall":   {heightTop: 3.0, extentMajor: 3.9, extentMinor: 1.6, topEl: geom.Deg2Rad(-2)},
		"too low":    {heightTop: 0.3, extentMajor: 3.9, extentMinor: 1.6, topEl: geom.Deg2Rad(-2)},
		"too long":   {heightTop: 1.5, extentMajor: 8, extentMinor: 1.6, topEl: geom.Deg2Rad(-2)},
		"too wide":   {heightTop: 1.5, extentMajor: 3.9, extentMinor: 3.0, topEl: geom.Deg2Rad(-2)},
		"pedestrian": {heightTop: 1.75, extentMajor: 0.5, extentMinor: 0.4, topEl: geom.Deg2Rad(-2)},
		"wall":       {heightTop: 1.5, extentMajor: 5.0, extentMinor: 0.1, topEl: geom.Deg2Rad(-2)},
		"truncated":  {heightTop: 1.5, extentMajor: 3.9, extentMinor: 1.6, topEl: fovTop},
	}
	for name, st := range cases {
		if plausibleCar(st, fovTop) {
			t.Errorf("%s passed the car gate", name)
		}
	}
}

func TestCentroidDistAndConcat(t *testing.T) {
	a := clusterPoints{xs: []float64{0, 2}, ys: []float64{0, 0}, zs: []float64{0, 0}}
	b := clusterPoints{xs: []float64{4, 6}, ys: []float64{0, 0}, zs: []float64{0, 0}}
	if got := centroidDistBEV(a, b); math.Abs(got-4) > 1e-12 {
		t.Errorf("centroid dist = %v, want 4", got)
	}
	u := concatClusters(a, b)
	if u.len() != 4 {
		t.Errorf("union len = %d, want 4", u.len())
	}
	if got := centroidDistBEV(a, clusterPoints{}); !math.IsInf(got, 1) {
		t.Errorf("empty cluster dist = %v, want +Inf", got)
	}
}

func TestCoopConfig(t *testing.T) {
	base := DefaultConfig()
	coop := CoopConfig(base, 25)
	if coop.UseSpherical {
		t.Error("coop config must not use spherical reprojection")
	}
	if coop.DedupVoxel <= 0 {
		t.Error("coop config must dedup")
	}
	if coop.MaxDetectionRange != base.MaxDetectionRange+25 {
		t.Errorf("range = %v", coop.MaxDetectionRange)
	}
}

package spod

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"cooper/internal/geom"
	"cooper/internal/lidar"
	"cooper/internal/pointcloud"
	"cooper/internal/scene"
)

// This file pins the linear-time neighbourhood passes — the conv
// rulebook, the merge-walk proposals and the radix-merge feature fuse —
// to copies of the search- and sort-based code they replaced. The copies
// wrap at the int32 key limits, so the comparisons stay away from them;
// TestSparseKeyLimits covers the limits.

// refFindCol locates key in the sorted column slice, returning -1 when
// the column is unoccupied.
func refFindCol(cols []colKey, key colKey) int {
	i := sort.Search(len(cols), func(j int) bool { return cols[j] >= key })
	if i < len(cols) && cols[i] == key {
		return i
	}
	return -1
}

// refApplyInto is the sparse convolution as it stood before the
// rulebook: every call re-resolves each column's 3×3 neighbourhood by
// binary search.
func refApplyInto(w ConvWeights, in *SparseTensor, outFeats []float64) {
	for ci := range in.Cols {
		x, y := unpackXY(in.Cols[ci])
		var nbCol [3][3]int32
		var nbCursor [3][3]int32
		for dy := int32(-1); dy <= 1; dy++ {
			for dx := int32(-1); dx <= 1; dx++ {
				nc := int32(refFindCol(in.Cols, packXY(x+dx, y+dy)))
				nbCol[dy+1][dx+1] = nc
				if nc >= 0 {
					nbCursor[dy+1][dx+1] = in.ColOff[nc]
				}
			}
		}
		for s := in.ColOff[ci]; s < in.ColOff[ci+1]; s++ {
			z := in.Zs[s]
			var nbSite [3][3][3]int32
			for dyi := 0; dyi < 3; dyi++ {
				for dxi := 0; dxi < 3; dxi++ {
					nbSite[dyi][dxi] = [3]int32{-1, -1, -1}
					nc := nbCol[dyi][dxi]
					if nc < 0 {
						continue
					}
					hi := in.ColOff[nc+1]
					cur := nbCursor[dyi][dxi]
					for cur < hi && in.Zs[cur] < z-1 {
						cur++
					}
					nbCursor[dyi][dxi] = cur
					for j := cur; j < hi && in.Zs[j] <= z+1; j++ {
						nbSite[dyi][dxi][in.Zs[j]-z+1] = j
					}
				}
			}
			var spatial [convChannels]float64
			for dzi := 0; dzi < 3; dzi++ {
				for dyi := 0; dyi < 3; dyi++ {
					for dxi := 0; dxi < 3; dxi++ {
						nb := nbSite[dyi][dxi][dzi]
						if nb < 0 {
							continue
						}
						tap := w.Spatial[dzi][dyi][dxi]
						f := in.Feats[int(nb)*convChannels:]
						for c := 0; c < convChannels; c++ {
							spatial[c] += tap * f[c]
						}
					}
				}
			}
			o0 := int(s) * convChannels
			for o := 0; o < convChannels; o++ {
				v := w.Bias[o]
				for c := 0; c < convChannels; c++ {
					v += w.Mix[o][c] * spatial[c]
				}
				if v < 0 {
					v = 0
				}
				outFeats[o0+o] = v
			}
		}
	}
}

// refMiddleLayers applies layers one after another through
// refApplyInto, into fresh feature planes.
func refMiddleLayers(t *SparseTensor, layers []ConvWeights) []float64 {
	feats := slices.Clone(t.Feats)
	for _, l := range layers {
		out := make([]float64, len(feats))
		refApplyInto(l, &SparseTensor{Cols: t.Cols, ColOff: t.ColOff, Zs: t.Zs, Feats: feats}, out)
		feats = out
	}
	return feats
}

// refProposal is the pre-change proposal answer: keys, DFS cells and
// component offsets.
type refProposal struct {
	keys  []colKey
	cells []int32
	off   []int32
}

// refProposalComponents is the region proposal as it stood before the
// merge walk: a 25× dilated key list, sorted and compacted, and a DFS
// that binary-searches each cell's 8 neighbours.
func refProposalComponents(m *BEVMap, threshold float64) refProposal {
	const dilate = 2
	var cand []colKey
	for ci, o := range m.Objectness {
		if o < threshold {
			continue
		}
		x, y := unpackXY(m.Cols[ci])
		for dx := int32(-dilate); dx <= dilate; dx++ {
			for dy := int32(-dilate); dy <= dilate; dy++ {
				cand = append(cand, packXY(x+dx, y+dy))
			}
		}
	}
	slices.Sort(cand)
	cand = slices.Compact(cand)

	p := refProposal{keys: cand, off: []int32{0}}
	visited := make([]bool, len(cand))
	var stack []int32
	for seed := range cand {
		if visited[seed] {
			continue
		}
		stack = append(stack[:0], int32(seed))
		visited[seed] = true
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			p.cells = append(p.cells, cur)
			x, y := unpackXY(cand[cur])
			for dx := int32(-1); dx <= 1; dx++ {
				for dy := int32(-1); dy <= 1; dy++ {
					if dx == 0 && dy == 0 {
						continue
					}
					nb := refFindCol(cand, packXY(x+dx, y+dy))
					if nb >= 0 && !visited[nb] {
						visited[nb] = true
						stack = append(stack, int32(nb))
					}
				}
			}
		}
		p.off = append(p.off, int32(len(p.cells)))
	}
	return p
}

// refFuseEntry stages one voxel site for the reference max-merge.
type refFuseEntry struct {
	col        colKey
	z, seq     int32
	remote     bool
	f          [convChannels]float64
	px, py, pz float64
}

// refFuseFeatureTensors is the feature fuse as it stood before the radix
// merge: every own and remote site staged as a 72-byte entry, ordered by
// a comparison sort on (column, z, creation order) and folded by max.
// Its z comparator subtracts in int32 and wraps for z a half-range apart.
func refFuseFeatureTensors(own *SparseTensor, grid *VoxelGrid, groundZ float64, remotes []RemoteFeatures) (*SparseTensor, *pseudoSet) {
	var entries []refFuseEntry
	for ci := range own.Cols {
		for site := own.ColOff[ci]; site < own.ColOff[ci+1]; site++ {
			e := refFuseEntry{col: own.Cols[ci], z: own.Zs[site], seq: int32(len(entries))}
			copy(e.f[:], own.Feats[int(site)*convChannels:int(site+1)*convChannels])
			entries = append(entries, e)
		}
	}
	sizeXY, sizeZ := grid.SizeXY, grid.SizeZ
	for _, r := range remotes {
		f := r.Frame
		if f == nil {
			continue
		}
		for ci := range f.Cols {
			x, y := unpackXY(f.Cols[ci])
			cx := (float64(x) + 0.5) * f.SizeXY
			cy := (float64(y) + 0.5) * f.SizeXY
			for site := f.ColOff[ci]; site < f.ColOff[ci+1]; site++ {
				cz := f.GroundZ + (float64(f.Zs[site])+0.5)*f.SizeZ
				p := r.Transform.Apply(geom.V3(cx, cy, cz))
				e := refFuseEntry{
					col:    packXY(int32(math.Floor(p.X/sizeXY)), int32(math.Floor(p.Y/sizeXY))),
					z:      int32(math.Floor((p.Z - groundZ) / sizeZ)),
					seq:    int32(len(entries)),
					remote: true,
					px:     p.X, py: p.Y, pz: p.Z,
				}
				copy(e.f[:], f.Feats[int(site)*convChannels:int(site+1)*convChannels])
				entries = append(entries, e)
			}
		}
	}
	slices.SortFunc(entries, func(a, b refFuseEntry) int {
		switch {
		case a.col != b.col:
			if a.col < b.col {
				return -1
			}
			return 1
		case a.z != b.z:
			return int(a.z - b.z)
		default:
			return int(a.seq - b.seq)
		}
	})

	fused := &SparseTensor{ColOff: []int32{0}}
	ps := &pseudoSet{off: []int32{0}}
	for lo := 0; lo < len(entries); {
		col := entries[lo].col
		hi := lo
		for hi < len(entries) && entries[hi].col == col {
			hi++
		}
		for i := lo; i < hi; {
			z := entries[i].z
			var f [convChannels]float64
			for ; i < hi && entries[i].z == z; i++ {
				for c := 0; c < convChannels; c++ {
					if entries[i].f[c] > f[c] {
						f[c] = entries[i].f[c]
					}
				}
			}
			fused.Zs = append(fused.Zs, z)
			fused.Feats = append(fused.Feats, f[:]...)
		}
		for i := lo; i < hi; i++ {
			if !entries[i].remote {
				continue
			}
			ps.xs = append(ps.xs, entries[i].px)
			ps.ys = append(ps.ys, entries[i].py)
			ps.zs = append(ps.zs, entries[i].pz)
		}
		if n := int32(len(ps.xs)); n > ps.off[len(ps.off)-1] {
			ps.cols = append(ps.cols, col)
			ps.off = append(ps.off, n)
		}
		fused.Cols = append(fused.Cols, col)
		fused.ColOff = append(fused.ColOff, int32(len(fused.Zs)))
		lo = hi
	}
	return fused, ps
}

// sameFloatBits reports whether a and b hold the same float64 bit
// patterns.
func sameFloatBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y)
	})
}

// randomTensor builds a tensor of n sites clustered around a few blobs,
// so columns have full, partial and empty neighbourhoods and z runs
// with gaps. Every other call spans negative coordinates.
func randomTensor(rng *rand.Rand, n int) *SparseTensor {
	m := make(map[pointcloud.VoxelKey][]float64, n)
	blobs := 1 + rng.Intn(4)
	spread := 1 + rng.Intn(12)
	off := int32(rng.Intn(2000) - 1000)
	n = min(n, spread*spread*(1+spread/2)) // blobs may overlap: one blob's worth is always reachable
	for len(m) < n {
		b := int32(rng.Intn(blobs))
		k := pointcloud.VoxelKey{
			X: off + b*37 + int32(rng.Intn(spread)),
			Y: -off + b*11 + int32(rng.Intn(spread)),
			Z: int32(rng.Intn(1+spread/2)) - 2,
		}
		m[k] = []float64{rng.Float64() * 3, rng.Float64(), rng.Float64() - 0.2}
	}
	return tensorFromMap(m)
}

// randomBEV builds a BEV map of n cells in blobs, with objectness
// straddling threshold 0.5.
func randomBEV(rng *rand.Rand, n int) *BEVMap {
	cells := make(map[pointcloud.VoxelKey]float64, n)
	blobs := 1 + rng.Intn(6)
	spread := 2 + rng.Intn(30)
	off := int32(rng.Intn(4000) - 2000)
	n = min(n, spread*spread)
	for len(cells) < n {
		b := int32(rng.Intn(blobs))
		k := pointcloud.VoxelKey{X: off + b*13 + int32(rng.Intn(spread)), Y: -off + b*7 + int32(rng.Intn(spread))}
		cells[k] = rng.Float64()
	}
	return bevFromMap(0.2, cells)
}

// checkProposals compares the merge-walk proposals against the
// reference and checks every candidate's grid and pseudo links.
func checkProposals(t *testing.T, name string, m *BEVMap, threshold float64, gridCols, psCols []colKey) {
	t.Helper()
	got := proposalComponentsScratch(m, threshold, gridCols, psCols, NewScratch())
	want := refProposalComponents(m, threshold)
	if !slices.Equal(got.keys, want.keys) || !slices.Equal(got.cells, want.cells) || !slices.Equal(got.off, want.off) {
		t.Fatalf("%s: proposals differ from the reference: %d/%d keys, %d/%d components",
			name, len(got.keys), len(want.keys), got.Len(), len(want.off)-1)
	}
	for i, k := range got.keys {
		for _, c := range []struct {
			cols []colKey
			link int32
		}{{gridCols, got.links[i].grid}, {psCols, got.links[i].pseudo}} {
			if want := refFindCol(c.cols, k); int32(want) != c.link {
				t.Fatalf("%s: candidate %d links column %d, want %d", name, i, c.link, want)
			}
		}
	}
}

// checkFuse compares the radix-merge fuse against the reference.
func checkFuse(t *testing.T, name string, own *SparseTensor, grid *VoxelGrid, groundZ float64, remotes []RemoteFeatures) {
	t.Helper()
	got, gotPS := fuseFeatureTensors(own, grid, groundZ, remotes, NewScratch())
	want, wantPS := refFuseFeatureTensors(own, grid, groundZ, remotes)
	if !slices.Equal(got.Cols, want.Cols) || !slices.Equal(got.ColOff, want.ColOff) ||
		!slices.Equal(got.Zs, want.Zs) || !sameFloatBits(got.Feats, want.Feats) {
		t.Fatalf("%s: fused tensor differs from the reference (%d/%d sites)", name, len(got.Zs), len(want.Zs))
	}
	if !slices.Equal(gotPS.cols, wantPS.cols) || !slices.Equal(gotPS.off, wantPS.off) ||
		!sameFloatBits(gotPS.xs, wantPS.xs) || !sameFloatBits(gotPS.ys, wantPS.ys) || !sameFloatBits(gotPS.zs, wantPS.zs) {
		t.Fatalf("%s: pseudo-points differ from the reference (%d/%d)", name, len(gotPS.xs), len(wantPS.xs))
	}
}

func TestConvMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	layers := DefaultMiddleLayers()
	// A layer with a negative mix and a bias, so ReLU clips some sites.
	layers = append(layers, ConvWeights{
		Spatial: gaussianKernel(),
		Mix:     [3][3]float64{{1, -0.7, 0.1}, {0.2, 0.8, 0}, {0, 0.3, -1}},
		Bias:    [3]float64{-0.05, 0.01, 0.2},
	})
	for i := 0; i < 300; i++ {
		in := randomTensor(rng, 1+rng.Intn(400))
		s := NewScratch()
		got := runMiddleLayers(&SparseTensor{Cols: in.Cols, ColOff: in.ColOff, Zs: in.Zs, Feats: slices.Clone(in.Feats)}, layers, s)
		if want := refMiddleLayers(in, layers); !sameFloatBits(got.Feats, want) {
			t.Fatalf("tensor %d (%d sites): features differ from the reference", i, len(in.Zs))
		}
	}
}

func TestProposalsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for i := 0; i < 1000; i++ {
		m := randomBEV(rng, 1+rng.Intn(300))
		// Link a random subset of the map's columns as the grid and
		// another as the pseudo set, some outside every candidate.
		var gridCols, psCols []colKey
		for _, c := range m.Cols {
			if rng.Intn(3) > 0 {
				gridCols = append(gridCols, c)
			}
			if rng.Intn(4) == 0 {
				psCols = append(psCols, c)
			}
		}
		checkProposals(t, "random map", m, 0.5, gridCols, psCols)
	}
}

// detectFrames are the BenchmarkDetectFrame* inputs with their
// detector configurations.
func detectFrames(t testing.TB) []struct {
	name  string
	cfg   Config
	cloud *pointcloud.Cloud
} {
	hdl64, hdl64Cfg := hdl64Frame(t)
	return []struct {
		name  string
		cfg   Config
		cloud *pointcloud.Cloud
	}{
		{"DetectFrame", DefaultConfig(), detectFrameCloud()},
		{"DetectFrameCoop", CoopConfig(DefaultConfig(), 10), twoViewMerge()},
		{"DetectFrameCanyon", CoopConfig(DefaultConfig(), 10), canyonMerge()},
		{"DetectFrameHDL64", hdl64Cfg, hdl64},
	}
}

func TestStagesMatchReferenceOnBenchFrames(t *testing.T) {
	for _, fr := range detectFrames(t) {
		det := New(fr.cfg)
		s := NewScratch()
		var st Stats
		tensor, grid, _, _ := det.frontHalf(fr.cloud, s, &st)
		in, _ := toSparseTensor(grid, nil)
		if want := refMiddleLayers(in, fr.cfg.MiddleLayers); !sameFloatBits(tensor.Feats, want) {
			t.Fatalf("%s: convolved features differ from the reference", fr.name)
		}
		bev := projectBEV(tensor, grid)
		checkProposals(t, fr.name, bev, fr.cfg.ObjectnessThreshold, grid.Cols, nil)
	}
}

// featureRemotes encodes the feature frames of poses 1..n of the
// featureStressSetup scenario and their transforms into the receiver
// (pose 0), with the receiver's cloud and the widest inter-vehicle
// distance.
func featureRemotes(t testing.TB, n int) (*pointcloud.Cloud, []RemoteFeatures, float64) {
	t.Helper()
	sc, err := scene.Generate(scene.GenParams{Family: "intersection", Fleet: 4, Seed: 11, Traffic: 6})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	scan := func(pose geom.Transform) *pointcloud.Cloud {
		return lidar.NewScanner(sc.LiDAR, sc.Seed).SetWorkers(1).
			ScanFrom(pose, sc.Scene.Targets(), sc.Scene.GroundZ).Cloud
	}
	worldToReceiver := lidar.SensorTransform(sc.Poses[0], sc.LiDAR.MountHeight)
	tx := New(DefaultConfig())
	var remotes []RemoteFeatures
	dist := 0.0
	for i := 1; i <= n; i++ {
		tr := worldToReceiver.Compose(lidar.SensorTransform(sc.Poses[i], sc.LiDAR.MountHeight).Inverse())
		o := tr.Apply(geom.V3(0, 0, 0))
		dist = max(dist, math.Sqrt(o.X*o.X+o.Y*o.Y+o.Z*o.Z))
		remotes = append(remotes, RemoteFeatures{Frame: tx.EncodeFeatureFrame(scan(sc.Poses[i]), nil), Transform: tr})
	}
	return scan(sc.Poses[0]), remotes, dist
}

func TestFuseMatchesReference(t *testing.T) {
	receiver, remotes, dist := featureRemotes(t, 3)
	cfg := FeatureCoopConfig(DefaultConfig(), dist)
	det := New(cfg)
	for n := 1; n <= len(remotes); n++ {
		s := NewScratch()
		var st Stats
		own, grid, _, groundZ := det.frontHalf(receiver, s, &st)
		rs := remotes[:n]
		if n == 2 {
			// A partial copy of the first remote and a nil frame too.
			rs = append(rs[:n:n], RemoteFeatures{Frame: remotes[0].Frame.TrimToBudget(remotes[0].Frame.EncodedSize() / 2), Transform: remotes[0].Transform}, RemoteFeatures{})
		}
		checkFuse(t, "feature round", own, grid, groundZ, rs)
		fused, ps := fuseFeatureTensors(own, grid, groundZ, rs, s)
		checkProposals(t, "fused round", projectBEV(fused, grid), cfg.ObjectnessThreshold, grid.Cols, ps.cols)
	}
	// Random remote frames over a random own tensor, under random
	// rigid transforms.
	rng := rand.New(rand.NewSource(28))
	for i := 0; i < 200; i++ {
		own := randomTensor(rng, 1+rng.Intn(200))
		grid := &VoxelGrid{SizeXY: 0.2, SizeZ: 0.25}
		var rs []RemoteFeatures
		for r := rng.Intn(4); r > 0; r-- {
			rt := randomTensor(rng, 1+rng.Intn(200))
			rs = append(rs, RemoteFeatures{
				Frame: &FeatureFrame{SizeXY: 0.2 + 0.2*float64(rng.Intn(2)), SizeZ: 0.25, GroundZ: rng.Float64() - 0.5,
					Cols: rt.Cols, ColOff: rt.ColOff, Zs: rt.Zs, Feats: rt.Feats},
				Transform: geom.NewTransform(rng.Float64()*6, 0, 0, geom.V3(rng.Float64()*4, rng.Float64()*4, 0)),
			})
		}
		checkFuse(t, "random round", own, grid, rng.Float64()-0.5, rs)
	}
}

// TestFuseFeatureTensorsHostileZ fuses two remote frames that the codec
// accepts but whose z layers land a half int32 range apart on one
// receiver column: every fused column must still hold strictly
// ascending, unique z layers.
func TestFuseFeatureTensorsHostileZ(t *testing.T) {
	own := tensorFromMap(map[pointcloud.VoxelKey][]float64{
		{X: 0, Y: 0, Z: 1}: {1, 0, 0}, {X: 0, Y: 0, Z: 2}: {1, 0, 0}, {X: 0, Y: 0, Z: 3}: {1, 0, 0},
		{X: 0, Y: 0, Z: 4}: {1, 0, 0}, {X: 0, Y: 0, Z: 5}: {1, 0, 0},
	})
	grid := &VoxelGrid{SizeXY: 0.2, SizeZ: 0.25}
	var remotes []RemoteFeatures
	for _, groundZ := range []float64{3e8, -3e8} {
		f := &FeatureFrame{SizeXY: 0.2, SizeZ: 1e6, GroundZ: groundZ,
			Cols: []colKey{packXY(0, 0)}, ColOff: []int32{0, 1}, Zs: []int32{0}, Feats: []float64{1, 1, 1}}
		wire, err := DecodeFeatureFrame(f.Encode())
		if err != nil {
			t.Fatalf("codec rejects the hostile frame: %v", err)
		}
		remotes = append(remotes, RemoteFeatures{Frame: wire, Transform: geom.IdentityTransform()})
	}
	fused, _ := fuseFeatureTensors(own, grid, 0, remotes, NewScratch())
	for c := range fused.Cols {
		zs := fused.Zs[fused.ColOff[c]:fused.ColOff[c+1]]
		for i := 1; i < len(zs); i++ {
			if zs[i] <= zs[i-1] {
				t.Fatalf("column %d: z layers %v not strictly ascending", c, zs)
			}
		}
	}
	if len(fused.Zs) != 7 {
		t.Fatalf("fused sites = %d, want 7 (5 own + 2 remote)", len(fused.Zs))
	}
}

// TestSparseKeyLimits puts sites and cells at the int32 key limits: the
// conv keeps a lone site's self tap there as at z = 0, and the proposal
// dilation and adjacency clip instead of wrapping to the far end of the
// key space.
func TestSparseKeyLimits(t *testing.T) {
	layer := DefaultMiddleLayers()[0]
	lone := func(k pointcloud.VoxelKey) []float64 {
		out, _ := layer.apply(tensorFromMap(map[pointcloud.VoxelKey][]float64{k: {1, 1, 1}})).featureAt(k)
		return out
	}
	want := lone(pointcloud.VoxelKey{})
	const lo, hi = math.MinInt32, math.MaxInt32
	for _, k := range []pointcloud.VoxelKey{
		{Z: lo}, {Z: hi}, {X: lo, Y: lo, Z: lo}, {X: hi, Y: hi, Z: hi}, {X: lo, Y: hi}, {X: hi, Y: lo},
	} {
		if got := lone(k); !sameFloatBits(got, want) {
			t.Errorf("lone site at %v: conv = %v, want %v as at the origin", k, got, want)
		}
	}
	// Two stacked sites at the z limit reach each other.
	pair := tensorFromMap(map[pointcloud.VoxelKey][]float64{{Z: hi - 1}: {1, 1, 1}, {Z: hi}: {1, 1, 1}})
	if got, _ := layer.apply(pair).featureAt(pointcloud.VoxelKey{Z: hi}); got[0] <= want[0] {
		t.Errorf("stacked sites at the z limit did not reinforce: %v <= %v", got[0], want[0])
	}

	for _, tc := range []struct {
		name  string
		cells []pointcloud.VoxelKey
		keys  int // candidates after clipped dilation
		comps int
	}{
		{"x max", []pointcloud.VoxelKey{{X: hi}}, 3 * 5, 1},
		{"x min", []pointcloud.VoxelKey{{X: lo}}, 3 * 5, 1},
		{"y max", []pointcloud.VoxelKey{{Y: hi}}, 5 * 3, 1},
		{"y min", []pointcloud.VoxelKey{{Y: lo}}, 5 * 3, 1},
		{"corner", []pointcloud.VoxelKey{{X: hi, Y: lo}}, 3 * 3, 1},
		{"both x ends", []pointcloud.VoxelKey{{X: lo}, {X: hi}}, 2 * 3 * 5, 2},
		{"both y ends", []pointcloud.VoxelKey{{X: 7, Y: lo}, {X: 7, Y: hi}}, 2 * 5 * 3, 2},
		{"all corners", []pointcloud.VoxelKey{{X: lo, Y: lo}, {X: lo, Y: hi}, {X: hi, Y: lo}, {X: hi, Y: hi}}, 4 * 3 * 3, 4},
	} {
		cells := make(map[pointcloud.VoxelKey]float64)
		for _, c := range tc.cells {
			cells[c] = 1
		}
		p := proposalComponents(bevFromMap(0.2, cells), 0.5)
		if len(p.keys) != tc.keys || p.Len() != tc.comps {
			t.Errorf("%s: %d candidates in %d components, want %d in %d", tc.name, len(p.keys), p.Len(), tc.keys, tc.comps)
		}
		if !slices.IsSorted(p.keys) || len(slices.Compact(slices.Clone(p.keys))) != len(p.keys) {
			t.Errorf("%s: candidate keys not strictly ascending", tc.name)
		}
	}
}

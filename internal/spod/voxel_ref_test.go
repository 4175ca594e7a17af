package spod

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"cooper/internal/pointcloud"
)

// refVoxelize is the voxel grid build as it stood before the counting
// sort: entries keyed by packed column, ordered by a comparison sort on
// (column, point index), then accumulated per column exactly as voxelize
// does. It is the reference the counting sort is pinned against.
func refVoxelize(c *pointcloud.Cloud, sizeXY, sizeZ, groundZ float64) VoxelGrid {
	type refEntry struct {
		col    colKey
		z, idx int32
	}
	g := VoxelGrid{SizeXY: sizeXY, SizeZ: sizeZ, GroundZ: groundZ, ColOff: []int32{0}, PtOff: []int32{0}}
	n := c.Len()
	entries := make([]refEntry, n)
	for i := range entries {
		p := c.At(i)
		entries[i] = refEntry{
			col: packXY(int32(math.Floor(p.X/sizeXY)), int32(math.Floor(p.Y/sizeXY))),
			z:   int32(math.Floor((p.Z - groundZ) / sizeZ)),
			idx: int32(i),
		}
	}
	slices.SortFunc(entries, func(a, b refEntry) int {
		switch {
		case a.col != b.col:
			if a.col < b.col {
				return -1
			}
			return 1
		default:
			return int(a.idx - b.idx)
		}
	})
	for lo := 0; lo < n; {
		hi := lo
		col := entries[lo].col
		for hi < n && entries[hi].col == col {
			hi++
		}
		var accs []voxAcc
		for _, e := range entries[lo:hi] {
			p := c.At(int(e.idx))
			slot := slices.IndexFunc(accs, func(a voxAcc) bool { return a.z == e.z })
			if slot < 0 {
				accs = append(accs, voxAcc{z: e.z, minZ: math.Inf(1), maxZ: math.Inf(-1)})
				slot = len(accs) - 1
			}
			a := &accs[slot]
			a.sumZ += p.Z - groundZ
			a.minZ = math.Min(a.minZ, p.Z-groundZ)
			a.maxZ = math.Max(a.maxZ, p.Z-groundZ)
			a.sumI += p.Reflectance
			a.n++
			g.PtIdx = append(g.PtIdx, e.idx)
		}
		slices.SortStableFunc(accs, func(a, b voxAcc) int { return int(a.z) - int(b.z) })
		for _, a := range accs {
			g.Zs = append(g.Zs, a.z)
			g.Feats = append(g.Feats, VoxelFeature{
				Count:         a.n,
				Density:       math.Log1p(float64(a.n)),
				MeanZ:         a.sumZ / float64(a.n),
				SpanZ:         a.maxZ - a.minZ,
				MeanIntensity: a.sumI / float64(a.n),
			})
		}
		g.Cols = append(g.Cols, col)
		g.ColOff = append(g.ColOff, int32(len(g.Zs)))
		g.PtOff = append(g.PtOff, int32(len(g.PtIdx)))
		lo = hi
	}
	return g
}

// spreadCloud scatters n points uniformly over ±half metres in x and y,
// with a second return stacked on every third point's column.
func spreadCloud(rng *rand.Rand, n int, half float64) *pointcloud.Cloud {
	c := pointcloud.New(n)
	for i := 0; i < n; i++ {
		x, y := (rng.Float64()*2-1)*half, (rng.Float64()*2-1)*half
		c.AppendXYZR(x, y, rng.Float64()*3-1.7, rng.Float64())
		if i%3 == 0 {
			c.AppendXYZR(x, y, rng.Float64()*3-1.7, rng.Float64())
		}
	}
	return c
}

// TestVoxelizeMatchesReference pins the counting-sort grid build bit for
// bit to the comparison-sort one, on one scratch reused across frames of
// different sizes. The
// frames span one column, the usual two digit passes, three passes
// (±2 km at 0.2 m voxels, a key span near 4·10^8) and six (coordinates
// at the int32 voxel-index extremes), with many points per column so an
// unstable pass would reorder them.
func TestVoxelizeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	noisy := noisyCloud(30000)
	oneColumn := pointcloud.New(0)
	for i := 0; i < 50; i++ {
		oneColumn.AppendXYZR(3.05+rng.Float64()*0.1, -7.05+rng.Float64()*0.1, rng.Float64()*2, rng.Float64())
	}
	extremes := spreadCloud(rng, 3000, 3e8)
	extremes.AppendXYZR(-4.29e8, 4.29e8, 0.5, 0.1) // voxel index near −2^31 and 2^31−1
	extremes.AppendXYZR(4.29e8, -4.29e8, 0.5, 0.2)
	frames := []struct {
		name  string
		cloud *pointcloud.Cloud
	}{
		{"noisy", noisy},
		{"one column", oneColumn},
		{"duplicates", noisy.Merge(noisy.Clone())},
		{"cars", sceneWithCars(9, 120, [3]float64{12, 3, 0.4}, [3]float64{-20, 8, 1.9})},
		{"three passes", spreadCloud(rng, 40000, 2000)},
		{"six passes", extremes},
		{"small", spreadCloud(rng, 200, 5)},
		{"empty", pointcloud.New(0)},
		{"noisy again", noisy},
	}
	s := NewScratch()
	for _, f := range frames {
		want := refVoxelize(f.cloud, 0.2, 0.25, -1.73)
		got := voxelize(f.cloud, 0.2, 0.25, -1.73, s)
		if !sameBits(*got, want) {
			t.Fatalf("%s: grid of %d columns differs from the reference's %d",
				f.name, len(got.Cols), len(want.Cols))
		}
	}
}

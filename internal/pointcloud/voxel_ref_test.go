package pointcloud

import (
	"math"
	"math/rand"
	"testing"
)

// mapVoxelDownsampleInto is the map-based VoxelDownsampleInto the voxel
// table replaced, kept verbatim as the reference its tests compare
// against bit for bit.
func mapVoxelDownsampleInto(c, dst *Cloud, voxelSize float64) *Cloud {
	if voxelSize <= 0 || c.Len() == 0 {
		src := c.pts
		dst.pts = append(dst.pts[:0], src...)
		return dst
	}
	type acc struct {
		x, y, z, r float64
		n          int
	}
	slot := make(map[VoxelKey]int32, c.Len()/2+1)
	accs := make([]acc, 0, c.Len()/2+1)
	for _, p := range c.pts {
		k := KeyFor(p.X, p.Y, p.Z, voxelSize)
		si, ok := slot[k]
		if !ok {
			si = int32(len(accs))
			accs = append(accs, acc{})
			slot[k] = si
		}
		a := &accs[si]
		a.x += p.X
		a.y += p.Y
		a.z += p.Z
		a.r += p.Reflectance
		a.n++
	}
	dst.pts = dst.pts[:0]
	for i := range accs {
		a := &accs[i]
		inv := 1 / float64(a.n)
		dst.pts = append(dst.pts, Point{
			X:           a.x * inv,
			Y:           a.y * inv,
			Z:           a.z * inv,
			Reflectance: a.r * inv,
		})
	}
	return dst
}

// voxelRefCloud is a cloud whose coordinates straddle zero, with one
// point in four an exact duplicate of an earlier point and one in eight
// a point nudged just across a voxel face.
func voxelRefCloud(n int, span, voxel float64, seed int64) *Cloud {
	rng := rand.New(rand.NewSource(seed))
	c := New(n)
	for i := 0; i < n; i++ {
		switch {
		case i > 0 && i%4 == 3:
			c.Append(c.pts[rng.Intn(i)])
		case i%8 == 5:
			x := math.Floor(rng.Float64()*span/voxel-span/(2*voxel)) * voxel
			c.AppendXYZR(math.Nextafter(x, math.Inf(-1)), -x, x, rng.Float64())
		default:
			c.AppendXYZR(rng.Float64()*span-span/2, rng.Float64()*span-span/2, rng.Float64()*span/4-span/8, rng.Float64())
		}
	}
	return c
}

// sameBits fails t unless got and want hold bit-identical points.
func sameBits(t *testing.T, name string, got, want *Cloud) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d voxels, reference %d", name, got.Len(), want.Len())
	}
	for i := range want.pts {
		g, w := got.pts[i], want.pts[i]
		if math.Float64bits(g.X) != math.Float64bits(w.X) || math.Float64bits(g.Y) != math.Float64bits(w.Y) ||
			math.Float64bits(g.Z) != math.Float64bits(w.Z) || math.Float64bits(g.Reflectance) != math.Float64bits(w.Reflectance) {
			t.Fatalf("%s: voxel %d = %+v, reference %+v", name, i, g, w)
		}
	}
}

func TestVoxelDownsampleMatchesMapReference(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		for _, voxel := range []float64{0.05, 0.1, 0.3, 1, 3} {
			for _, n := range []int{1, 7, 300, 4000} {
				c := voxelRefCloud(n, 40, voxel, seed)
				want := mapVoxelDownsampleInto(c, &Cloud{}, voxel)
				sameBits(t, "fresh dst", c.VoxelDownsampleInto(&Cloud{}, voxel), want)
				in := c.Clone()
				sameBits(t, "dst == c", in.VoxelDownsampleInto(in, voxel), want)
			}
		}
	}
}

// TestVoxelDownsampleReuseMatchesMapReference runs one destination and
// the pooled voxel table through a shrinking and then a growing cloud, so
// a slot or an accumulator left over from a larger frame would show.
func TestVoxelDownsampleReuseMatchesMapReference(t *testing.T) {
	dst := &Cloud{}
	for i, n := range []int{20000, 5000, 300, 2, 300, 5000, 30000} {
		c := voxelRefCloud(n, 60, 0.1, int64(100+i))
		want := mapVoxelDownsampleInto(c, &Cloud{}, 0.1)
		sameBits(t, "reused dst", c.VoxelDownsampleInto(dst, 0.1), want)
	}
}

// TestVoxelTableGrowKeepsIDs adds far more keys than the table was sized
// for and checks every id against a map, across each doubling.
func TestVoxelTableGrowKeepsIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var tab voxelTable
	tab.reset(1)
	ids := map[VoxelKey]int32{}
	for i := 0; i < 5000; i++ {
		k := VoxelKey{X: rng.Int31n(64) - 32, Y: rng.Int31n(64) - 32, Z: rng.Int31n(3) - 1}
		want, ok := ids[k]
		if !ok {
			want = int32(len(ids))
			ids[k] = want
		}
		if got := tab.add(k); got != want {
			t.Fatalf("add %v = %d, want %d", k, got, want)
		}
		if 2*len(ids) > len(tab.slots) {
			t.Fatalf("%d keys in %d slots: more than half full", len(ids), len(tab.slots))
		}
	}
	for k, want := range ids {
		if got, ok := tab.find(k); !ok || got != want {
			t.Fatalf("find %v = %d, %v, want %d", k, got, ok, want)
		}
	}
	if _, ok := tab.find(VoxelKey{X: 1000}); ok {
		t.Error("find reported a key that was never added")
	}
}

package spod

import (
	"cmp"
	"slices"
	"testing"

	"cooper/internal/pointcloud"
)

// tensorFromMap builds a SparseTensor from a key→feature map, in the
// canonical sorted site order — the test-side constructor for the sorted
// sparse layout.
func tensorFromMap(m map[pointcloud.VoxelKey][]float64) *SparseTensor {
	type site struct {
		col colKey
		z   int32
		f   []float64
	}
	sites := make([]site, 0, len(m))
	for k, f := range m {
		sites = append(sites, site{col: packXY(k.X, k.Y), z: k.Z, f: f})
	}
	slices.SortFunc(sites, func(a, b site) int {
		switch {
		case a.col != b.col:
			if a.col < b.col {
				return -1
			}
			return 1
		default:
			return cmp.Compare(a.z, b.z)
		}
	})
	t := &SparseTensor{ColOff: []int32{0}}
	for _, s := range sites {
		if len(t.Cols) == 0 || t.Cols[len(t.Cols)-1] != s.col {
			t.Cols = append(t.Cols, s.col)
			t.ColOff = append(t.ColOff, t.ColOff[len(t.ColOff)-1])
		}
		t.ColOff[len(t.ColOff)-1]++
		t.Zs = append(t.Zs, s.z)
		t.Feats = append(t.Feats, s.f...)
	}
	return t
}

// bevFromMap builds a BEVMap from a key→objectness map in canonical
// column order.
func bevFromMap(sizeXY float64, cells map[pointcloud.VoxelKey]float64) *BEVMap {
	keys := make([]colKey, 0, len(cells))
	byKey := make(map[colKey]float64, len(cells))
	for k, o := range cells {
		ck := packXY(k.X, k.Y)
		keys = append(keys, ck)
		byKey[ck] = o
	}
	slices.Sort(keys)
	m := &BEVMap{SizeXY: sizeXY}
	for _, ck := range keys {
		m.Cols = append(m.Cols, ck)
		m.Objectness = append(m.Objectness, byKey[ck])
		m.TopZ = append(m.TopZ, 0)
	}
	return m
}

func TestPackXYOrder(t *testing.T) {
	// Unsigned order of packed keys must equal lexicographic (x, y)
	// signed order — the property every sorted traversal relies on.
	coords := []int32{-2147483648, -1000, -1, 0, 1, 1000, 2147483647}
	var prev colKey
	first := true
	for _, x := range coords {
		for _, y := range coords {
			k := packXY(x, y)
			gx, gy := unpackXY(k)
			if gx != x || gy != y {
				t.Fatalf("roundtrip (%d,%d) -> (%d,%d)", x, y, gx, gy)
			}
			if !first && k <= prev {
				t.Fatalf("packed order broken at (%d,%d)", x, y)
			}
			prev, first = k, false
		}
	}
}

package spod

import (
	"sort"
)

// This file holds the sorted sparse-key machinery the detector's hot path
// is built on. Every sparse structure in the pipeline — the voxel grid,
// the convolution tensor, the BEV map, the proposal candidate set — keys
// its sites by BEV column and stores them in one fixed, sorted order, so
// every accumulation and traversal visits sites identically on every run
// and at every worker count. Determinism is a property of the layout, not
// of a post-hoc sort: there is no map iteration anywhere on the frame
// path (see docs/DETERMINISM.md).

// colKey packs a BEV column coordinate (x, y voxel indices) into one
// uint64 whose unsigned order equals the lexicographic signed (x, y)
// order — flipping the sign bit maps int32 order onto uint32 order.
type colKey = uint64

func packXY(x, y int32) colKey {
	return uint64(uint32(x)^0x80000000)<<32 | uint64(uint32(y)^0x80000000)
}

func unpackXY(k colKey) (x, y int32) {
	return int32(uint32(k>>32) ^ 0x80000000), int32(uint32(k) ^ 0x80000000)
}

// findCol locates key in the sorted column slice, returning -1 when the
// column is unoccupied.
func findCol(cols []colKey, key colKey) int {
	i := sort.Search(len(cols), func(j int) bool { return cols[j] >= key })
	if i < len(cols) && cols[i] == key {
		return i
	}
	return -1
}

// voxEntry stages one point's voxel assignment for the column sort: its
// BEV column (x, y), its z layer and its index in the input cloud.
// Entries are built in point order and sortByColumn is stable, so they
// group by column while keeping the cloud's point order inside each
// column, which keeps every per-voxel float accumulation in exactly the
// order a sequential scan would produce.
type voxEntry struct {
	x, y, z, idx int32
}

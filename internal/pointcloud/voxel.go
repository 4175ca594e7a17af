package pointcloud

import (
	"math"
	"math/bits"
)

// VoxelKey identifies a voxel cell by integer grid coordinates.
type VoxelKey struct {
	X, Y, Z int32
}

// KeyFor returns the voxel key of a position for the given voxel edge
// length.
func KeyFor(x, y, z, voxelSize float64) VoxelKey {
	return VoxelKey{
		X: int32(math.Floor(x / voxelSize)),
		Y: int32(math.Floor(y / voxelSize)),
		Z: int32(math.Floor(z / voxelSize)),
	}
}

// voxelTable numbers voxel keys in order of first appearance: an
// open-addressing hash table with linear probing whose power-of-two size
// stays at least twice the number of keys it holds. Only grow walks the
// slots, and it keeps every id, so no output built from the ids depends
// on the hash.
type voxelTable struct {
	slots []voxelSlot
	shift uint // 64 − log2(len(slots)): the hash keeps its top bits
	n     int32
}

// voxelSlot is one table slot: a key and its id plus one, so the zero
// slot is empty.
type voxelSlot struct {
	k  VoxelKey
	id int32
}

// reset empties the table, sized for hint keys, reusing its slots when
// they are large enough.
func (t *voxelTable) reset(hint int) {
	size := 16
	for size < 2*hint {
		size <<= 1
	}
	if cap(t.slots) >= size {
		t.slots = t.slots[:size]
		clear(t.slots)
	} else {
		t.slots = make([]voxelSlot, size)
	}
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	t.n = 0
}

// slot returns the index k's probe sequence starts at.
func (t *voxelTable) slot(k VoxelKey) int {
	h := uint64(uint32(k.X))*0x9e3779b97f4a7c15 ^
		uint64(uint32(k.Y))*0xc2b2ae3d27d4eb4f ^
		uint64(uint32(k.Z))*0x165667b19e3779f9
	return int(h >> t.shift)
}

// add returns k's id, giving k the next id if it is new.
func (t *voxelTable) add(k VoxelKey) int32 {
	if 2*int(t.n+1) > len(t.slots) {
		t.grow()
	}
	mask := len(t.slots) - 1
	for i := t.slot(k); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.id == 0 {
			t.n++
			*s = voxelSlot{k: k, id: t.n}
			return t.n - 1
		}
		if s.k == k {
			return s.id - 1
		}
	}
}

// find returns k's id, or false if k was never added.
func (t *voxelTable) find(k VoxelKey) (int32, bool) {
	mask := len(t.slots) - 1
	for i := t.slot(k); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.id == 0 {
			return 0, false
		}
		if s.k == k {
			return s.id - 1, true
		}
	}
}

// grow doubles the table, keeping every key's id.
func (t *voxelTable) grow() {
	old := t.slots
	t.slots = make([]voxelSlot, 2*max(len(old), 8))
	t.shift = uint(64 - bits.TrailingZeros(uint(len(t.slots))))
	mask := len(t.slots) - 1
	for _, s := range old {
		if s.id == 0 {
			continue
		}
		i := t.slot(s.k)
		for t.slots[i].id != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}

// voxelAcc sums one voxel's points.
type voxelAcc struct {
	x, y, z, r float64
	n          int
}

// VoxelScratch is VoxelDownsampleInto's working set: the voxel table and
// the per-voxel accumulators. Both grow to the largest cloud they have
// seen and are then reused, so a caller that downsamples in a loop holds
// one scratch and allocates nothing per frame. The zero value is ready
// for use; a scratch serves one call at a time.
type VoxelScratch struct {
	tab  voxelTable
	accs []voxelAcc
}

// VoxelDownsampleInto writes into dst (reset first; dst may be c) a
// cloud with at most one point per voxel of the given edge length: the
// centroid of the points that fell in the voxel, with the mean
// reflectance. Merged cooperative clouds are downsampled this way to
// bound detector input size regardless of how many vehicles
// contributed. Voxels appear in first-point order and each accumulates
// its centroid in cloud point order, so the output is deterministic: the
// voxel table only numbers the voxels and is never iterated. s holds the
// table and the accumulators, so a steady-state caller that reuses s and
// dst allocates nothing.
func (c *Cloud) VoxelDownsampleInto(dst *Cloud, voxelSize float64, s *VoxelScratch) *Cloud {
	if voxelSize <= 0 || c.Len() == 0 {
		src := c.pts
		dst.pts = append(dst.pts[:0], src...)
		return dst
	}
	s.tab.reset(len(c.pts))
	accs := s.accs[:0]
	for _, p := range c.pts {
		si := s.tab.add(KeyFor(p.X, p.Y, p.Z, voxelSize))
		if int(si) == len(accs) {
			accs = append(accs, voxelAcc{})
		}
		a := &accs[si]
		a.x += p.X
		a.y += p.Y
		a.z += p.Z
		a.r += p.Reflectance
		a.n++
	}
	s.accs = accs
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

// Package pointcloud implements the LiDAR point-cloud data structure Cooper
// exchanges between vehicles, together with the operations the paper relies
// on: rigid-transform alignment (Eq. 3), set-union merging (Eq. 2), spatial
// cropping for region-of-interest extraction, voxel-grid downsampling, a
// grid index for neighbourhood queries and a compact binary wire codec.
package pointcloud

import (
	"math"

	"cooper/internal/geom"
)

// Point is a single LiDAR return: a 3D position in the sensor frame plus a
// reflectance (intensity) value in [0, 1]. This matches the KITTI Velodyne
// layout of (x, y, z, reflectance).
type Point struct {
	X, Y, Z     float64
	Reflectance float64
}

// Pos returns the point's position as a vector.
func (p Point) Pos() geom.Vec3 { return geom.Vec3{X: p.X, Y: p.Y, Z: p.Z} }

// Range returns the distance of the point from the sensor origin.
func (p Point) Range() float64 {
	return math.Sqrt(p.X*p.X + p.Y*p.Y + p.Z*p.Z)
}

// Cloud is an ordered collection of LiDAR points. The zero value is an
// empty cloud ready to use.
type Cloud struct {
	pts []Point
}

// New returns an empty cloud with capacity for n points.
func New(n int) *Cloud {
	return &Cloud{pts: make([]Point, 0, n)}
}

// FromPoints wraps a point slice in a Cloud. The slice is copied so later
// mutation of the argument cannot alias the cloud (slices are copied at
// API boundaries).
//
//cooper:deadexport test fixture: the fusion, hub and spod tests build their clouds with it
func FromPoints(pts []Point) *Cloud {
	c := &Cloud{pts: make([]Point, len(pts))}
	copy(c.pts, pts)
	return c
}

// Len returns the number of points in the cloud.
func (c *Cloud) Len() int {
	if c == nil {
		return 0
	}
	return len(c.pts)
}

// At returns the i-th point.
func (c *Cloud) At(i int) Point { return c.pts[i] }

// Points returns a copy of the underlying points.
//
//cooper:deadexport test fixture: the hub, lidar, roi and spod tests compare clouds point by point with it
func (c *Cloud) Points() []Point {
	out := make([]Point, len(c.pts))
	copy(out, c.pts)
	return out
}

// Reset empties the cloud, keeping its capacity — the reuse hook for
// per-frame staging buffers (see spod.DetectorScratch).
func (c *Cloud) Reset() { c.pts = c.pts[:0] }

// ensure resizes the backing slice to n points reusing capacity — the
// zero-copy decode path writes into clouds drawn from the pool without a
// per-frame make([]Point, n).
func (c *Cloud) ensure(n int) []Point {
	if cap(c.pts) < n {
		c.pts = make([]Point, n)
	} else {
		c.pts = c.pts[:n]
	}
	return c.pts
}

// AppendXYZR adds a single point given by coordinates.
func (c *Cloud) AppendXYZR(x, y, z, r float64) {
	c.pts = append(c.pts, Point{X: x, Y: y, Z: z, Reflectance: r})
}

// Clone returns a deep copy of the cloud.
func (c *Cloud) Clone() *Cloud {
	out := &Cloud{pts: make([]Point, len(c.pts))}
	copy(out.pts, c.pts)
	return out
}

// Transform returns a new cloud with every point mapped through the rigid
// transform tr. This is Eq. 3 of the paper: p' = R·p + Δd, the step a
// receiving vehicle applies to align a transmitter's cloud with its own
// sensor frame.
func (c *Cloud) Transform(tr geom.Transform) *Cloud {
	out := &Cloud{pts: make([]Point, len(c.pts))}
	for i, p := range c.pts {
		v := tr.Apply(p.Pos())
		out.pts[i] = Point{X: v.X, Y: v.Y, Z: v.Z, Reflectance: p.Reflectance}
	}
	return out
}

// Merge returns the union of the receiver's cloud with the given clouds
// (Eq. 2 of the paper). Points are concatenated; deduplication is left to
// voxel downsampling because physically distinct returns may coincide.
func (c *Cloud) Merge(others ...*Cloud) *Cloud {
	total := c.Len()
	for _, o := range others {
		total += o.Len()
	}
	out := &Cloud{pts: make([]Point, 0, total)}
	out.pts = append(out.pts, c.pts...)
	for _, o := range others {
		if o != nil {
			out.pts = append(out.pts, o.pts...)
		}
	}
	return out
}

package spod

import (
	"math"
	"math/bits"
	"sort"

	"cooper/internal/geom"
	"cooper/internal/pointcloud"
)

// Car anchor dimensions (KITTI class means), shared with the scene model.
const (
	anchorLength = 3.9
	anchorWidth  = 1.6
	anchorHeight = 1.56
)

// sortSlice is a tiny generic wrapper over sort.Slice keeping call sites
// terse.
func sortSlice[T any](s []T, less func(a, b T) bool) {
	sort.Slice(s, func(i, j int) bool { return less(s[i], s[j]) })
}

// fitStats carries the evidence the score head consumes.
type fitStats struct {
	// n is the number of cluster points inside the fitted box.
	n int
	// coverage is the fraction of the box footprint's BEV cells occupied.
	coverage float64
	// heightTop is the highest point above ground; heightSpan the z spread.
	heightTop, heightSpan float64
	// extentMajor/extentMinor are the observed extents along the fitted axes.
	extentMajor, extentMinor float64
	// extAlongL/extAlongW are the observed extents along the anchor's
	// length and width axes specifically, for dimension consistency.
	extAlongL, extAlongW float64
	// rangeXY is the box centre's ground distance from the sensor.
	rangeXY float64
	// topEl is the highest elevation angle (radians, sensor frame) among
	// the cluster's points — used to detect vertical-FOV truncation.
	topEl float64
}

// candidate is a fitted box proposal with its evidence.
type candidate struct {
	box   geom.Box
	stats fitStats
}

// clusterPoints is the working set for one proposal region.
type clusterPoints struct {
	xs, ys, zs []float64
}

func gatherCluster[I int | int32](c *pointcloud.Cloud, idxs []I) clusterPoints {
	cp := clusterPoints{
		xs: make([]float64, 0, len(idxs)),
		ys: make([]float64, 0, len(idxs)),
		zs: make([]float64, 0, len(idxs)),
	}
	for _, i := range idxs {
		p := c.At(int(i))
		cp.xs = append(cp.xs, p.X)
		cp.ys = append(cp.ys, p.Y)
		cp.zs = append(cp.zs, p.Z)
	}
	return cp
}

func (cp clusterPoints) len() int { return len(cp.xs) }

// clusterPart is a cluster ready for anchor fitting: its points and,
// when already searched, their L-shape yaw (minAreaYaw). splitCluster
// hands back a cluster it leaves whole with the yaw its split test
// searched; tiled parts and fragment-merge unions carry none, and
// bestCandidate searches theirs only once the part passes the yaw-free
// gate.
type clusterPart struct {
	clusterPoints
	yaw    float64
	hasYaw bool
}

// lShapeYaw returns the part's L-shape yaw, searching it if the part
// carries none.
func (p clusterPart) lShapeYaw() float64 {
	if p.hasYaw {
		return p.yaw
	}
	return p.minAreaYaw()
}

// pcaYaw returns the orientation of the cluster's principal BEV axis.
func (cp clusterPoints) pcaYaw() float64 {
	n := float64(cp.len())
	if n < 2 {
		return 0
	}
	var mx, my float64
	for i := range cp.xs {
		mx += cp.xs[i]
		my += cp.ys[i]
	}
	mx /= n
	my /= n
	var sxx, syy, sxy float64
	for i := range cp.xs {
		dx, dy := cp.xs[i]-mx, cp.ys[i]-my
		sxx += dx * dx
		syy += dy * dy
		sxy += dx * dy
	}
	// Orientation of the dominant eigenvector of the 2×2 covariance.
	return 0.5 * math.Atan2(2*sxy, sxx-syy)
}

// minAreaYaw searches yaw ∈ [0, π/2) for the rectangle orientation that
// maximises the closeness criterion of Zhang et al. (ICRA 2017) — the
// standard L-shape fit for vehicle LiDAR clusters. For each candidate
// orientation, every point is scored by its distance to the nearest
// rectangle edge; visible car faces pull the rectangle into alignment,
// where raw PCA drifts toward the L's diagonal and minimum-area tilts
// under noise.
func (cp clusterPoints) minAreaYaw() float64 {
	n := cp.len()
	if n < 2 {
		return 0
	}
	// Subsample large clusters: orientation needs shape, not every point.
	stride := 1
	if n > 512 {
		stride = n / 512
	}
	const steps = 60 // 1.5° resolution
	// The builtin min/max inline where math.Min/Max are calls. The two
	// differ only in NaN bits and on a fold holding a NaN and an infinity
	// of the fold's sign (math.Min(NaN, -Inf) is -Inf, the builtin's NaN).
	// Neither reaches the yaw: a sampled NaN projection makes that point's
	// d NaN under both rules (no term of d can be -Inf), so the step's
	// score is NaN either way and never wins.
	bestYaw, bestScore := 0.0, math.Inf(-1)
	for i := 0; i < steps; i++ {
		yaw := float64(i) * (math.Pi / 2) / steps
		c1, s1 := math.Cos(yaw), math.Sin(yaw)

		// First pass: extents along both axes.
		lo1, hi1 := math.Inf(1), math.Inf(-1)
		lo2, hi2 := math.Inf(1), math.Inf(-1)
		for j := 0; j < n; j += stride {
			u := c1*cp.xs[j] + s1*cp.ys[j]
			v := -s1*cp.xs[j] + c1*cp.ys[j]
			lo1, hi1 = min(lo1, u), max(hi1, u)
			lo2, hi2 = min(lo2, v), max(hi2, v)
		}
		// Second pass: closeness — reward points hugging an edge.
		const d0 = 0.05 // saturation distance, metres
		score := 0.0
		for j := 0; j < n; j += stride {
			u := c1*cp.xs[j] + s1*cp.ys[j]
			v := -s1*cp.xs[j] + c1*cp.ys[j]
			d := min(u-lo1, hi1-u, v-lo2, hi2-v)
			score += 1 / max(d, d0)
		}
		if score > bestScore {
			bestScore = score
			bestYaw = yaw
		}
	}
	return bestYaw
}

// extents projects the cluster on the axis at the given yaw and returns
// (min, max) along it. It folds with math.Min/Max, not the builtins: the
// extents reach the candidate stats, and on a fold holding a NaN and +Inf
// math.Max returns +Inf where the builtin max returns NaN (zStats too).
func (cp clusterPoints) extents(yaw float64) (float64, float64) {
	c, s := math.Cos(yaw), math.Sin(yaw)
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := range cp.xs {
		v := c*cp.xs[i] + s*cp.ys[i]
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	return lo, hi
}

// partProfile is a part's yaw-free evidence: its height range and the
// highest elevation angle (radians, sensor frame) among its points, used
// to detect vertical-FOV truncation. Points within 0.5 m of the sensor
// axis carry no elevation.
type partProfile struct {
	zMin, zMax, topEl float64
}

// zStats returns (min, max) height of the cluster.
func (cp clusterPoints) zStats() (float64, float64) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, z := range cp.zs {
		lo = math.Min(lo, z)
		hi = math.Max(hi, z)
	}
	return lo, hi
}

// profile computes the part's yaw-free evidence.
func (cp clusterPoints) profile() partProfile {
	pr := partProfile{topEl: math.Inf(-1)}
	pr.zMin, pr.zMax = cp.zStats()
	for i := range cp.xs {
		r := math.Hypot(cp.xs[i], cp.ys[i])
		if r < 0.5 {
			continue
		}
		if el := math.Atan2(cp.zs[i], r); el > pr.topEl {
			pr.topEl = el
		}
	}
	return pr
}

// fitCandidates fits car-anchor boxes to a cluster. It returns up to two
// candidates (anchor length along the cluster's L-shape yaw and
// perpendicular to it) — the RPN's two anchor orientations — each with an
// L-shape occlusion shift: when a face is only partially observed, the
// anchor is pushed away from the sensor so the observed points sit on its
// near boundary, the way a partially visible car actually extends away
// from the viewer.
//
// pr is the part's profile and groundZ anchors heights; sensorXY is the
// observing sensor's ground position (the merge receiver's origin for
// cooperative clouds).
func fitCandidates(part clusterPart, pr partProfile, groundZ float64, sensorXY geom.Vec2) []candidate {
	cp := part.clusterPoints
	if cp.len() < 3 {
		return nil
	}
	base := part.lShapeYaw()
	out := make([]candidate, 0, 2)
	for _, yaw := range []float64{base, base + math.Pi/2} {
		cand, ok := fitAtYaw(cp, yaw, pr, groundZ, sensorXY)
		if ok {
			out = append(out, cand)
		}
	}
	return out
}

func fitAtYaw(cp clusterPoints, yaw float64, pr partProfile, groundZ float64, sensorXY geom.Vec2) (candidate, bool) {
	loL, hiL := cp.extents(yaw)
	loW, hiW := cp.extents(yaw + math.Pi/2)
	extL := hiL - loL
	extW := hiW - loW

	cL := (loL + hiL) / 2
	cW := (loW + hiW) / 2

	// Sensor position projected on the box axes, for the occlusion shift.
	cYaw, sYaw := math.Cos(yaw), math.Sin(yaw)
	sensL := cYaw*sensorXY.X + sYaw*sensorXY.Y
	cYawW, sYawW := math.Cos(yaw+math.Pi/2), math.Sin(yaw+math.Pi/2)
	sensW := cYawW*sensorXY.X + sYawW*sensorXY.Y

	shift := func(center, extent, dim, sensor float64) float64 {
		if extent >= dim {
			return center
		}
		d := (dim - extent) / 2
		if center >= sensor {
			return center + d
		}
		return center - d
	}
	cL = shift(cL, extL, anchorLength, sensL)
	cW = shift(cW, extW, anchorWidth, sensW)

	// Back to world BEV coordinates.
	cx := cYaw*cL + cYawW*cW
	cy := sYaw*cL + sYawW*cW

	box := geom.NewBox(
		geom.V3(cx, cy, groundZ+anchorHeight/2),
		anchorLength, anchorWidth, anchorHeight, geom.WrapAngle(yaw),
	)

	// Evidence: points inside the (slightly inflated) box and footprint
	// coverage. A point inside the grown box has box-local |lx| ≤
	// anchorLength/2+0.15 and |ly| ≤ anchorWidth/2+0.15, so its coverage
	// cell index lands in [-1, 10]×[-1, 4] — a fixed 12×6 window that
	// fits in a 72-bit set, replacing the per-candidate map allocation.
	grown := geom.NewBox(box.Center, box.Length+0.3, box.Width+0.3, box.Height+0.5, box.Yaw)
	n := 0
	var cellBits [2]uint64
	const cell = 0.4
	for i := range cp.xs {
		p := geom.V3(cp.xs[i], cp.ys[i], cp.zs[i])
		if !grown.Contains(p) {
			continue
		}
		n++
		// Cell in box-local coordinates so coverage is orientation-free.
		lx := cYaw*(cp.xs[i]-cx) + sYaw*(cp.ys[i]-cy)
		ly := -sYaw*(cp.xs[i]-cx) + cYaw*(cp.ys[i]-cy)
		ix := int(math.Floor((lx+anchorLength/2)/cell)) + 1
		iy := int(math.Floor((ly+anchorWidth/2)/cell)) + 1
		bit := ix*6 + iy
		cellBits[bit>>6] |= 1 << (bit & 63)
	}
	if n == 0 {
		return candidate{}, false
	}
	coveredCells := bits.OnesCount64(cellBits[0]) + bits.OnesCount64(cellBits[1])
	footprintCells := math.Ceil(anchorLength/cell) * math.Ceil(anchorWidth/cell)

	st := fitStats{
		n:           n,
		coverage:    float64(coveredCells) / footprintCells,
		heightTop:   pr.zMax - groundZ,
		heightSpan:  pr.zMax - pr.zMin,
		extentMajor: math.Max(extL, extW),
		extentMinor: math.Min(extL, extW),
		extAlongL:   extL,
		extAlongW:   extW,
		rangeXY:     math.Hypot(cx-sensorXY.X, cy-sensorXY.Y),
		topEl:       pr.topEl,
	}
	return candidate{box: box, stats: st}, true
}

// splitCluster tiles an oversized cluster along its principal axis into
// car-length bins and returns the per-bin point subsets. Queued or
// bumper-to-bumper vehicles form one connected proposal; tiling lets the
// anchors separate them. The split test needs the whole cluster's
// L-shape yaw, so a cluster that stays whole keeps it; tiled parts carry
// no yaw, since most of them (wall and building bins) fail the yaw-free
// gate and never need one.
func splitCluster(cp clusterPoints) []clusterPart {
	whole := clusterPart{clusterPoints: cp, yaw: cp.minAreaYaw(), hasYaw: true}
	yaw := whole.yaw
	if loA, hiA := cp.extents(yaw); true {
		// Split along whichever fitted axis is longer.
		if loB, hiB := cp.extents(yaw + math.Pi/2); (hiB - loB) > (hiA - loA) {
			yaw += math.Pi / 2
		}
	}
	lo, hi := cp.extents(yaw)
	extent := hi - lo
	if extent <= anchorLength*1.3 {
		return []clusterPart{whole}
	}
	bins := int(math.Ceil(extent / (anchorLength * 1.15)))
	if bins < 2 {
		return []clusterPart{whole}
	}
	binW := extent / float64(bins)
	c, s := math.Cos(yaw), math.Sin(yaw)
	binOf := func(i int) int {
		v := c*cp.xs[i] + s*cp.ys[i]
		return min(int((v-lo)/binW), bins-1)
	}
	// Count each bin's points, then carve every bin's xs, ys and zs out
	// of one backing array, filled in point order. Each window is a full
	// slice expression, so a later append to a part (concatClusters)
	// reallocates instead of writing into its neighbour.
	off := make([]int, 2*bins+1) // bin starts, then the fill cursors
	for i := range cp.xs {
		off[binOf(i)+1]++
	}
	for b := 1; b <= bins; b++ {
		off[b] += off[b-1]
	}
	next := off[bins+1:]
	copy(next, off[:bins])
	n := cp.len()
	backing := make([]float64, 3*n)
	xs, ys, zs := backing[:n], backing[n:2*n], backing[2*n:]
	for i := range cp.xs {
		b := binOf(i)
		j := next[b]
		next[b]++
		xs[j], ys[j], zs[j] = cp.xs[i], cp.ys[i], cp.zs[i]
	}
	kept := make([]clusterPart, 0, bins)
	for b := 0; b < bins; b++ {
		if start, end := off[b], off[b+1]; end-start >= 3 {
			kept = append(kept, clusterPart{clusterPoints: clusterPoints{
				xs: xs[start:end:end], ys: ys[start:end:end], zs: zs[start:end:end],
			}})
		}
	}
	return kept
}

// centroidDistBEV returns the ground-plane distance between two clusters'
// centroids.
func centroidDistBEV(a, b clusterPoints) float64 {
	if a.len() == 0 || b.len() == 0 {
		return math.Inf(1)
	}
	var ax, ay, bx, by float64
	for i := range a.xs {
		ax += a.xs[i]
		ay += a.ys[i]
	}
	for i := range b.xs {
		bx += b.xs[i]
		by += b.ys[i]
	}
	ax /= float64(a.len())
	ay /= float64(a.len())
	bx /= float64(b.len())
	by /= float64(b.len())
	return math.Hypot(ax-bx, ay-by)
}

// concatClusters returns the union of two clusters' points.
func concatClusters(a, b clusterPoints) clusterPoints {
	out := clusterPoints{
		xs: make([]float64, 0, a.len()+b.len()),
		ys: make([]float64, 0, a.len()+b.len()),
		zs: make([]float64, 0, a.len()+b.len()),
	}
	out.xs = append(append(out.xs, a.xs...), b.xs...)
	out.ys = append(append(out.ys, a.ys...), b.ys...)
	out.zs = append(append(out.zs, a.zs...), b.zs...)
	return out
}

// Geometric class gate: the observed evidence a passenger car can
// produce. plausibleProfile applies the rules that need no yaw (height
// window and FOV-ceiling truncation), plausibleDims the ones on fitted
// extents; a candidate is a car only if it passes both.
const (
	// truncationMargin is ≈1.2°, about three HDL-64E beam gaps.
	truncationMargin = 0.021
	// maxCarTop is the highest roof a car has (trucks, buildings and
	// trees reach above); minCarTop the lowest (barriers, debris).
	maxCarTop = 2.3
	minCarTop = 0.55
)

// plausibleProfile applies the yaw-free rules to a part's top height
// above ground and its highest elevation. fovTopEl is the sensor's
// highest beam elevation: a part whose top sits at the vertical-FOV
// ceiling is height-truncated (the sensor cannot see over it), and since
// every supported device's ceiling lies above a car roof at all ranges,
// a truncated part cannot be a car.
func plausibleProfile(heightTop, topEl, fovTopEl float64) bool {
	switch {
	case topEl >= fovTopEl-truncationMargin: // truncated tall object
		return false
	case heightTop > maxCarTop:
		return false
	case heightTop < minCarTop:
		return false
	}
	return true
}

// plausibleDims rejects fitted candidates whose observed extents cannot
// belong to a passenger car.
func plausibleDims(st fitStats) bool {
	switch {
	case st.extentMajor > 5.2: // walls, long structures (post-tiling)
		return false
	case st.extentMinor > 2.3: // too wide for a car
		return false
	case st.extentMajor < 2.0 && st.heightTop > 1.62: // pedestrians, cyclists
		return false
	case st.extentMajor > 3.0 && st.extentMinor < 0.22: // thin wall segments
		return false
	}
	return true
}

package fusion

import (
	"math"

	"cooper/internal/geom"
	"cooper/internal/pointcloud"
)

// ICPConfig controls the iterative-closest-point refinement.
type ICPConfig struct {
	// MaxIterations bounds the outer loop.
	MaxIterations int
	// MaxPairDistance discards correspondences farther apart than this.
	MaxPairDistance float64
	// ConvergenceDelta stops iterating once the pose update's translation
	// falls below this, metres.
	ConvergenceDelta float64
	// MaxPoints subsamples the source cloud for speed.
	MaxPoints int
}

// DefaultICPConfig returns a configuration suited to refining GPS-level
// misalignment (decimetres) between vehicle scans.
func DefaultICPConfig() ICPConfig {
	return ICPConfig{
		MaxIterations:    12,
		MaxPairDistance:  1.0,
		ConvergenceDelta: 0.002,
		MaxPoints:        1500,
	}
}

// icpReference is the receiver side of the ICP refinement, prepared once
// and reused for every source registered against the same reference: its
// elevated points and their grid index. A nil index marks a reference
// with too little structure to register against.
//
// The refinement estimates a corrective transform that, applied after
// the GPS/IMU alignment, better registers the transmitter's cloud against
// the receiver's. It runs 2D (BEV) point-to-point ICP — vehicle pose error
// is dominated by planar GPS drift — solving for yaw and (x, y) shift in
// closed form per iteration via the cross-covariance method. This is the
// paper's future-work direction for handling sensor drift beyond the
// robustness already shown in Fig. 10.
type icpReference struct {
	cfg   ICPConfig
	cloud *pointcloud.Cloud
	index *pointcloud.GridIndex
}

func newICPReference(reference *pointcloud.Cloud, cfg ICPConfig) *icpReference {
	r := &icpReference{cfg: cfg}
	if reference.Len() == 0 {
		return r
	}
	// Ground returns dominate clouds and carry no lateral constraint;
	// register on elevated structure only.
	ref := reference.RemoveGroundPlane(reference.EstimateGroundZ(), 0.3)
	if ref.Len() < 10 {
		return r
	}
	r.cloud = ref
	r.index = pointcloud.NewGridIndex(ref, cfg.MaxPairDistance)
	return r
}

// refine runs the ICP loop for one source cloud against the reference.
func (r *icpReference) refine(source *pointcloud.Cloud) geom.Transform {
	correction := geom.IdentityTransform()
	if r.index == nil || source.Len() == 0 {
		return correction
	}
	cfg := r.cfg
	src := source.RemoveGroundPlane(source.EstimateGroundZ(), 0.3)
	if src.Len() < 10 {
		return correction
	}

	stride := 1
	if src.Len() > cfg.MaxPoints {
		stride = src.Len() / cfg.MaxPoints
	}

	var sxs, sys, rxs, rys []float64
	for iter := 0; iter < cfg.MaxIterations; iter++ {
		// Gather correspondences under the current correction.
		sxs, sys, rxs, rys = sxs[:0], sys[:0], rxs[:0], rys[:0]
		for i := 0; i < src.Len(); i += stride {
			p := correction.Apply(src.At(i).Pos())
			// Bounded query: pairs beyond MaxPairDistance are discarded
			// below anyway, and an unbounded nearest-neighbour search
			// crawls the whole grid whenever a source point lands far from
			// any reference structure (the NLOS families are full of such
			// points — the occluder hides most of the reference cloud).
			j, d := r.index.NearestWithin(p, cfg.MaxPairDistance)
			if j < 0 || d > cfg.MaxPairDistance {
				continue
			}
			q := r.cloud.At(j)
			sxs = append(sxs, p.X)
			sys = append(sys, p.Y)
			rxs = append(rxs, q.X)
			rys = append(rys, q.Y)
		}
		dyaw, tx, ty, ok := rigidFit2D(sxs, sys, rxs, rys)
		if !ok {
			// Too few pairs, or a degenerate (coincident/collinear) pair
			// set that cannot constrain a rotation: stop refining rather
			// than apply an unstable yaw. On the first iteration this
			// returns the identity correction.
			return correction
		}

		update := geom.NewTransform(dyaw, 0, 0, geom.V3(tx, ty, 0))
		correction = update.Compose(correction)
		if math.Hypot(tx, ty) < cfg.ConvergenceDelta && math.Abs(dyaw) < 1e-4 {
			break
		}
	}
	return correction
}

// minPairs is the smallest correspondence set a rigid fit accepts.
const minPairs = 8

// rigidFit2D solves the closed-form 2D rigid registration
// (Umeyama/Procrustes without scale) mapping the source points onto the
// reference points: R(dyaw)·s + (tx, ty) ≈ r.
//
// ok is false when the problem is unsolvable or numerically degenerate:
// fewer than minPairs correspondences; all source or all reference
// points coincident (zero scatter — any rotation fits equally); or a
// collinear point set, whose cross-covariance loses rank and lets noise
// pick the yaw. The caller must treat !ok as "no update" rather than
// trust the angle Atan2 would produce from near-zero sums.
func rigidFit2D(sxs, sys, rxs, rys []float64) (dyaw, tx, ty float64, ok bool) {
	if len(sxs) < minPairs {
		return 0, 0, 0, false
	}
	n := float64(len(sxs))
	var msx, msy, mrx, mry float64
	for i := range sxs {
		msx += sxs[i]
		msy += sys[i]
		mrx += rxs[i]
		mry += rys[i]
	}
	msx /= n
	msy /= n
	mrx /= n
	mry /= n
	// Per-set scatter (for the degeneracy gates) and cross-covariance
	// (for the rotation).
	var sss, srr float64           // Σ|s-ms|², Σ|r-mr|²
	var sxxS, syyS, sxyS float64   // source scatter matrix
	var exxR, eyyR, exyR float64   // reference scatter matrix
	var sxx, sxy, syx, syy float64 // cross-covariance
	for i := range sxs {
		dx, dy := sxs[i]-msx, sys[i]-msy
		ex, ey := rxs[i]-mrx, rys[i]-mry
		sss += dx*dx + dy*dy
		srr += ex*ex + ey*ey
		sxxS += dx * dx
		syyS += dy * dy
		sxyS += dx * dy
		exxR += ex * ex
		eyyR += ey * ey
		exyR += ex * ey
		sxx += dx * ex
		sxy += dx * ey
		syx += dy * ex
		syy += dy * ey
	}
	// Coincident: a point heap constrains translation but no rotation.
	const eps = 1e-9
	if sss/n < eps || srr/n < eps {
		return 0, 0, 0, false
	}
	// Collinear: when either set's scatter matrix loses a dimension (its
	// smaller eigenvalue vanishes relative to the larger), the
	// cross-covariance drops to rank 1, one rotation direction carries no
	// information, and the fitted yaw would follow the noise in it. Both
	// sides can degenerate independently — nearest-neighbour gathering
	// happily matches a spread source against a thin wall — so gate both.
	degenerate := func(xx, yy, xy float64) bool {
		tr := xx + yy
		det := xx*yy - xy*xy
		disc := math.Sqrt(math.Max(0, tr*tr/4-det))
		lMin, lMax := tr/2-disc, tr/2+disc
		return lMin < 1e-6*lMax
	}
	if degenerate(sxxS, syyS, sxyS) || degenerate(exxR, eyyR, exyR) {
		return 0, 0, 0, false
	}
	dyaw = math.Atan2(sxy-syx, sxx+syy)
	c, s := math.Cos(dyaw), math.Sin(dyaw)
	tx = mrx - (c*msx - s*msy)
	ty = mry - (s*msx + c*msy)
	return dyaw, tx, ty, true
}

package spod

import (
	"math"

	"cooper/internal/geom"
	"cooper/internal/pointcloud"
)

// ClusterDetector is the naive baseline the paper argues against for
// sparse data, kept as the reference the pipeline tests measure SPOD
// against: plain Euclidean clustering with a rigid size gate and no
// sparsity-aware machinery — no dense re-representation, no occlusion-
// aware anchor fitting, no cluster splitting. It works acceptably on
// dense 64-beam clouds and degrades sharply on 16-beam ones, motivating
// SPOD's design (§III-B).
type ClusterDetector struct {
	// Tolerance is the neighbour distance merging points into a cluster.
	Tolerance float64
	// MinPoints is the smallest cluster considered an object.
	MinPoints int
	// ScoreRef is the point count mapped to full confidence.
	ScoreRef float64
}

// NewClusterDetector returns the baseline with conventional parameters.
func NewClusterDetector() *ClusterDetector {
	return &ClusterDetector{Tolerance: 0.6, MinPoints: 20, ScoreRef: 200}
}

// Detect runs Euclidean clustering and returns car-sized clusters.
func (cd *ClusterDetector) Detect(cloud *pointcloud.Cloud) []Detection {
	groundZ := cloud.EstimateGroundZ()
	nonGround := cloud.RemoveGroundPlane(groundZ, 0.25)
	if nonGround.Len() == 0 {
		return nil
	}
	idx := pointcloud.NewGridIndex(nonGround, cd.Tolerance)

	visited := make([]bool, nonGround.Len())
	var dets []Detection
	var stack []int
	for seed := 0; seed < nonGround.Len(); seed++ {
		if visited[seed] {
			continue
		}
		visited[seed] = true
		stack = append(stack[:0], seed)
		var members []int
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			members = append(members, cur)
			for _, nb := range idx.Radius(nonGround.At(cur).Pos(), cd.Tolerance) {
				if !visited[nb] {
					visited[nb] = true
					stack = append(stack, nb)
				}
			}
		}
		if len(members) < cd.MinPoints {
			continue
		}
		if det, ok := cd.fit(nonGround, members, groundZ); ok {
			dets = append(dets, det)
		}
	}
	// The slice is local, so suppression can reorder it in place.
	return nmsInPlace(dets, 0.1)
}

// fit builds a PCA box around the cluster and applies the rigid car-size
// gate: the observed extent itself must match a car, so partially visible
// cars fail — exactly the brittleness SPOD's anchor model fixes.
func (cd *ClusterDetector) fit(c *pointcloud.Cloud, members []int, groundZ float64) (Detection, bool) {
	cp := gatherCluster(c, members)
	yaw := cp.pcaYaw()
	loL, hiL := cp.extents(yaw)
	loW, hiW := cp.extents(yaw + math.Pi/2)
	extL, extW := hiL-loL, hiW-loW
	if extL < extW {
		yaw += math.Pi / 2
		loL, hiL, loW, hiW = loW, hiW, loL, hiL
		extL, extW = extW, extL
	}
	_, zMax := cp.zStats()
	height := zMax - groundZ

	// Rigid gate: observed dimensions must already look like a whole car.
	if extL < 2.4 || extL > 5.0 || extW < 0.9 || extW > 2.2 {
		return Detection{}, false
	}
	if height < 1.1 || height > 2.2 {
		return Detection{}, false
	}

	cL := (loL + hiL) / 2
	cW := (loW + hiW) / 2
	cYaw, sYaw := math.Cos(yaw), math.Sin(yaw)
	cYawW, sYawW := math.Cos(yaw+math.Pi/2), math.Sin(yaw+math.Pi/2)
	cx := cYaw*cL + cYawW*cW
	cy := sYaw*cL + sYawW*cW

	box := geom.NewBox(geom.V3(cx, cy, groundZ+height/2), extL, extW, height, geom.WrapAngle(yaw))
	score := geom.Clamp(float64(len(members))/cd.ScoreRef, 0, 0.95)
	return Detection{Box: box, Score: score, NumPoints: len(members)}, true
}

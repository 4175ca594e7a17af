package spod

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"cooper/internal/geom"
)

// The ref* functions are the anchor fit as it stood before the fit stage
// switched to the builtin min/max and reused splitCluster's yaw search:
// math.Min/math.Max folds, and a fresh minAreaYaw inside fitCandidates.
// They are the reference the fit stage is pinned against.

func refMinAreaYaw(cp clusterPoints) float64 {
	n := cp.len()
	if n < 2 {
		return 0
	}
	stride := 1
	if n > 512 {
		stride = n / 512
	}
	const steps = 60
	bestYaw, bestScore := 0.0, math.Inf(-1)
	for i := 0; i < steps; i++ {
		yaw := float64(i) * (math.Pi / 2) / steps
		c1, s1 := math.Cos(yaw), math.Sin(yaw)
		lo1, hi1 := math.Inf(1), math.Inf(-1)
		lo2, hi2 := math.Inf(1), math.Inf(-1)
		for j := 0; j < n; j += stride {
			u := c1*cp.xs[j] + s1*cp.ys[j]
			v := -s1*cp.xs[j] + c1*cp.ys[j]
			lo1, hi1 = math.Min(lo1, u), math.Max(hi1, u)
			lo2, hi2 = math.Min(lo2, v), math.Max(hi2, v)
		}
		const d0 = 0.05
		score := 0.0
		for j := 0; j < n; j += stride {
			u := c1*cp.xs[j] + s1*cp.ys[j]
			v := -s1*cp.xs[j] + c1*cp.ys[j]
			d := math.Min(
				math.Min(u-lo1, hi1-u),
				math.Min(v-lo2, hi2-v),
			)
			score += 1 / math.Max(d, d0)
		}
		if score > bestScore {
			bestScore = score
			bestYaw = yaw
		}
	}
	return bestYaw
}

func refExtents(cp clusterPoints, yaw float64) (float64, float64) {
	c, s := math.Cos(yaw), math.Sin(yaw)
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := range cp.xs {
		v := c*cp.xs[i] + s*cp.ys[i]
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	return lo, hi
}

func refZStats(cp clusterPoints) (float64, float64) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, z := range cp.zs {
		lo = math.Min(lo, z)
		hi = math.Max(hi, z)
	}
	return lo, hi
}

func refFitCandidates(cp clusterPoints, groundZ float64, sensorXY geom.Vec2) []candidate {
	if cp.len() < 3 {
		return nil
	}
	base := refMinAreaYaw(cp)
	zMin, zMax := refZStats(cp)
	out := make([]candidate, 0, 2)
	for _, yaw := range []float64{base, base + math.Pi/2} {
		cand, ok := refFitAtYaw(cp, yaw, groundZ, zMin, zMax, sensorXY)
		if ok {
			out = append(out, cand)
		}
	}
	return out
}

func refFitAtYaw(cp clusterPoints, yaw, groundZ, zMin, zMax float64, sensorXY geom.Vec2) (candidate, bool) {
	loL, hiL := refExtents(cp, yaw)
	loW, hiW := refExtents(cp, yaw+math.Pi/2)
	extL := hiL - loL
	extW := hiW - loW
	cL := (loL + hiL) / 2
	cW := (loW + hiW) / 2
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
	cx := cYaw*cL + cYawW*cW
	cy := sYaw*cL + sYawW*cW
	box := geom.NewBox(
		geom.V3(cx, cy, groundZ+anchorHeight/2),
		anchorLength, anchorWidth, anchorHeight, geom.WrapAngle(yaw),
	)
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
	topEl := math.Inf(-1)
	for i := range cp.xs {
		r := math.Hypot(cp.xs[i], cp.ys[i])
		if r < 0.5 {
			continue
		}
		if el := math.Atan2(cp.zs[i], r); el > topEl {
			topEl = el
		}
	}
	st := fitStats{
		n:           n,
		coverage:    float64(coveredCells) / footprintCells,
		heightTop:   zMax - groundZ,
		heightSpan:  zMax - zMin,
		extentMajor: math.Max(extL, extW),
		extentMinor: math.Min(extL, extW),
		extAlongL:   extL,
		extAlongW:   extW,
		rangeXY:     math.Hypot(cx-sensorXY.X, cy-sensorXY.Y),
		topEl:       topEl,
	}
	return candidate{box: box, stats: st}, true
}

func refSplitCluster(cp clusterPoints) []clusterPoints {
	yaw := refMinAreaYaw(cp)
	if loA, hiA := refExtents(cp, yaw); true {
		if loB, hiB := refExtents(cp, yaw+math.Pi/2); (hiB - loB) > (hiA - loA) {
			yaw += math.Pi / 2
		}
	}
	lo, hi := refExtents(cp, yaw)
	extent := hi - lo
	if extent <= anchorLength*1.3 {
		return []clusterPoints{cp}
	}
	bins := int(math.Ceil(extent / (anchorLength * 1.15)))
	if bins < 2 {
		return []clusterPoints{cp}
	}
	binW := extent / float64(bins)
	out := make([]clusterPoints, bins)
	c, s := math.Cos(yaw), math.Sin(yaw)
	for i := range cp.xs {
		v := c*cp.xs[i] + s*cp.ys[i]
		b := int((v - lo) / binW)
		if b >= bins {
			b = bins - 1
		}
		out[b].xs = append(out[b].xs, cp.xs[i])
		out[b].ys = append(out[b].ys, cp.ys[i])
		out[b].zs = append(out[b].zs, cp.zs[i])
	}
	kept := out[:0]
	for _, b := range out {
		if b.len() >= 3 {
			kept = append(kept, b)
		}
	}
	return kept
}

// floatBits flattens v's numeric fields, floats as their IEEE bits, so
// two values compare bit for bit (NaN payloads and signed zeros count).
func floatBits(v reflect.Value, out []uint64) []uint64 {
	switch v.Kind() {
	case reflect.Float64:
		return append(out, math.Float64bits(v.Float()))
	case reflect.Int:
		return append(out, uint64(v.Int()))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			out = floatBits(v.Field(i), out)
		}
	case reflect.Slice:
		out = append(out, uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			out = floatBits(v.Index(i), out)
		}
	default:
		panic(fmt.Sprintf("floatBits: unhandled kind %v", v.Kind()))
	}
	return out
}

func sameBits(a, b any) bool {
	return reflect.DeepEqual(floatBits(reflect.ValueOf(a), nil), floatBits(reflect.ValueOf(b), nil))
}

// fitTestClusters returns clusters covering the fit's regimes: single
// cars and L-shapes (unsplit), queues (split), clusters past the 512-point
// subsampling stride, and clusters carrying NaN, −0.0 and ±Inf
// coordinates.
func fitTestClusters(rng *rand.Rand) []clusterPoints {
	box := func(n int, length, width, yaw, x0, y0 float64) clusterPoints {
		var cp clusterPoints
		c, s := math.Cos(yaw), math.Sin(yaw)
		for i := 0; i < n; i++ {
			lx, ly := rng.Float64()*length, rng.Float64()*width
			if i%3 == 0 { // hug an edge: the L-shape a LiDAR sees
				ly = 0
			}
			cp.xs = append(cp.xs, x0+c*lx-s*ly)
			cp.ys = append(cp.ys, y0+s*lx+c*ly)
			cp.zs = append(cp.zs, -1.7+rng.Float64()*1.5)
		}
		return cp
	}
	var out []clusterPoints
	for i := 0; i < 40; i++ {
		yaw := rng.Float64() * math.Pi
		x0, y0 := rng.Float64()*40-20, rng.Float64()*40-20
		switch i % 4 {
		case 0:
			out = append(out, box(3+rng.Intn(200), 3.9, 1.6, yaw, x0, y0))
		case 1:
			out = append(out, box(100+rng.Intn(600), 9+rng.Float64()*6, 1.7, yaw, x0, y0))
		case 2:
			out = append(out, box(600+rng.Intn(900), 4.2, 1.8, yaw, x0, y0))
		default:
			out = append(out, box(3+rng.Intn(8), 1+rng.Float64()*5, 0.5, yaw, x0, y0))
		}
	}
	specials := []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1)}
	for i := 0; i < 60; i++ {
		cp := box(3+rng.Intn(300), 3.9+rng.Float64()*8, 1.6, float64(i%4)*math.Pi/4, 0, 0)
		for k := 1 + rng.Intn(4); k > 0; k-- {
			j := rng.Intn(cp.len())
			v := specials[rng.Intn(len(specials))]
			switch rng.Intn(4) {
			case 0:
				cp.xs[j] = v
			case 1:
				cp.ys[j] = v
			case 2:
				cp.zs[j] = v
			default:
				cp.xs[j], cp.ys[j] = v, specials[rng.Intn(len(specials))]
			}
		}
		out = append(out, cp)
	}
	// Every pairing of NaN with an infinity in one fold, on each axis.
	for _, ax := range []int{0, 1, 2} {
		for _, pair := range [][2]float64{{math.NaN(), math.Inf(-1)}, {math.NaN(), math.Inf(1)}, {math.Inf(1), math.Inf(-1)}} {
			cp := box(40, 3.9, 1.6, 0.3, 5, 5)
			for k, v := range []float64{pair[0], pair[1], math.NaN(), math.Inf(1), math.Inf(-1)}[:2+ax] {
				col := [][]float64{cp.xs, cp.ys, cp.zs}[ax]
				col[3*k] = v
			}
			out = append(out, cp)
		}
	}
	return out
}

// TestFitMatchesReference pins the fit stage — splitCluster's parts and
// yaws, and every part's candidates — bit for bit to the pre-change fit,
// which searched the yaw again for a cluster left whole.
func TestFitMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	split, whole := 0, 0
	for ci, cp := range fitTestClusters(rng) {
		parts, want := splitCluster(cp), refSplitCluster(cp)
		if len(parts) != len(want) {
			t.Fatalf("cluster %d: %d parts, reference %d", ci, len(parts), len(want))
		}
		if len(parts) == 1 && sameBits(parts[0].clusterPoints, cp) {
			whole++
		} else {
			split++
		}
		for pi, part := range parts {
			if !sameBits(part.clusterPoints, want[pi]) {
				t.Fatalf("cluster %d part %d: points differ from the reference split", ci, pi)
			}
			if wy := refMinAreaYaw(want[pi]); math.Float64bits(part.yaw) != math.Float64bits(wy) {
				t.Fatalf("cluster %d part %d: yaw %v, reference %v", ci, pi, part.yaw, wy)
			}
			for _, groundZ := range []float64{-1.73, 0} {
				for _, sensor := range []geom.Vec2{{}, {X: 3, Y: -2}} {
					got := fitCandidates(part, groundZ, sensor)
					ref := refFitCandidates(want[pi], groundZ, sensor)
					if !sameBits(got, ref) {
						t.Fatalf("cluster %d part %d: candidates\n%+v\nreference\n%+v", ci, pi, got, ref)
					}
				}
			}
		}
	}
	if split == 0 || whole == 0 {
		t.Fatalf("regimes covered: %d split, %d whole; want both", split, whole)
	}
}

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
// switched to the builtin min/max, reused splitCluster's yaw search and
// gated parts on their yaw-free evidence before searching a yaw:
// math.Min/math.Max folds, a fresh minAreaYaw inside fitCandidates, the
// elevation ceiling recomputed per anchor orientation, and one class gate
// applied to every fitted candidate. They are the reference the fit stage
// is pinned against.

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

func refPlausibleCar(st fitStats, fovTopEl float64) bool {
	const truncationMargin = 0.021
	switch {
	case st.topEl >= fovTopEl-truncationMargin:
		return false
	case st.heightTop > 2.3:
		return false
	case st.heightTop < 0.55:
		return false
	case st.extentMajor > 5.2:
		return false
	case st.extentMinor > 2.3:
		return false
	case st.extentMajor < 2.0 && st.heightTop > 1.62:
		return false
	case st.extentMajor > 3.0 && st.extentMinor < 0.22:
		return false
	}
	return true
}

func refBestCandidate(cfg Config, cp clusterPoints, groundZ float64) (scoredCandidate, bool) {
	best := scoredCandidate{score: -1}
	for _, cand := range refFitCandidates(cp, groundZ, geom.Vec2{}) {
		if cand.stats.rangeXY > cfg.MaxDetectionRange {
			continue
		}
		if !refPlausibleCar(cand.stats, cfg.VerticalFOVTop) {
			continue
		}
		if score := cfg.Score.Score(cand.stats); score > best.score {
			best = scoredCandidate{cand: cand, score: score}
		}
	}
	return best, best.score >= 0
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
	case reflect.Int, reflect.Int32:
		return append(out, uint64(v.Int()))
	case reflect.Uint64:
		return append(out, v.Uint())
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
// subsampling stride, clusters carrying NaN, −0.0 and ±Inf coordinates,
// and the parts the yaw-free gate rejects: tiled walls taller than a car,
// low barriers, and clusters truncated at the vertical-FOV ceiling.
// Unless a case sets its own heights, points sit 0.03–1.53 m above a
// ground at z = −1.73.
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
	withHeights := func(cp clusterPoints, lo, hi float64) clusterPoints {
		for i := range cp.zs {
			cp.zs[i] = lo + rng.Float64()*(hi-lo)
		}
		return cp
	}
	for i := 0; i < 12; i++ {
		yaw := rng.Float64() * math.Pi
		x0, y0 := rng.Float64()*40-20, rng.Float64()*40-20
		// Tall walls 5–6 m high, long enough to tile; every third one
		// carries a car-height stretch so some of its bins pass the gate.
		wall := withHeights(box(200+rng.Intn(700), 10+rng.Float64()*20, 0.3, yaw, x0, y0), -1.7, 3.3+rng.Float64()*1.0)
		if i%3 == 0 {
			for j := 0; j < wall.len()/3; j++ {
				wall.zs[j] = -1.7 + rng.Float64()*1.5
			}
		}
		out = append(out, wall)
		// Low barriers, tiled and whole, topping out under 0.55 m.
		out = append(out, withHeights(box(20+rng.Intn(400), 2+rng.Float64()*14, 0.4, yaw, x0, y0), -1.7, -1.3+rng.Float64()*0.1))
		// Car-sized clusters 3–6 m from the sensor whose tops reach up
		// to the FOV ceilings without being too tall.
		r := 3 + rng.Float64()*3
		az := rng.Float64() * 2 * math.Pi
		trunc := box(30+rng.Intn(300), 3.9, 1.6, yaw, r*math.Cos(az), r*math.Sin(az))
		out = append(out, withHeights(trunc, -1.7, -1.73+0.6+rng.Float64()*1.6))
	}
	// Each yaw-free rule at its boundary: a car whose top sits just
	// inside and just outside the height window, one whose apex point
	// sits just under and just over each FOV ceiling the tests use, and
	// one with a high point either side of the 0.5 m sensor-axis cutoff.
	for _, top := range []float64{0.54, 0.549, 0.551, 0.56, 2.25, 2.299, 2.301, 2.31} {
		cp := withHeights(box(60, 3.9, 1.6, 0, 8, -0.8), -1.7, -1.73+top)
		cp.zs[0] = -1.73 + top
		out = append(out, cp)
	}
	for _, ceil := range []float64{geom.Deg2Rad(15), geom.Deg2Rad(2)} {
		r0 := 0.5 / math.Tan(ceil)
		for _, dEl := range []float64{-1e-3, -1e-5, 1e-5, 1e-3} {
			cp := box(60, 3.9, 1.6, 0, r0, -0.8)
			cp.xs = append(cp.xs, r0)
			cp.ys = append(cp.ys, 0)
			cp.zs = append(cp.zs, r0*math.Tan(ceil-0.021+dEl))
			out = append(out, cp)
		}
	}
	for _, r := range []float64{0.45, 0.55} {
		cp := box(60, 3.9, 1.6, 0, 0.6, -0.8)
		cp.xs = append(cp.xs, r)
		cp.ys = append(cp.ys, 0)
		cp.zs = append(cp.zs, 0.3)
		out = append(out, cp)
	}
	return out
}

// TestFitMatchesReference pins the fit stage — splitCluster's parts and
// yaws, and every part's candidates — bit for bit to the pre-change fit,
// which searched the yaw again for a cluster left whole and eagerly for
// every tiled part.
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
			if len(parts) > 1 && part.hasYaw {
				t.Fatalf("cluster %d part %d: tiled part carries a searched yaw", ci, pi)
			}
			// A tiled part's yaw is searched lazily; resolve it here so
			// every part's yaw is compared.
			if yaw, wy := part.lShapeYaw(), refMinAreaYaw(want[pi]); math.Float64bits(yaw) != math.Float64bits(wy) {
				t.Fatalf("cluster %d part %d: yaw %v, reference %v", ci, pi, yaw, wy)
			}
			for _, groundZ := range []float64{-1.73, 0} {
				for _, sensor := range []geom.Vec2{{}, {X: 3, Y: -2}} {
					got := fitCandidates(part, part.profile(), groundZ, sensor)
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

// TestBestCandidateMatchesReference pins bestCandidate — the yaw-free
// gate ahead of the lazy yaw search, then the anchor fits and the
// dimension gate — bit for bit to the pre-change selection, which searched
// every part's yaw and applied one class gate to each fitted candidate.
// Whole clusters are checked both with splitCluster's yaw and lazily, as
// a fragment-merge union arrives.
func TestBestCandidateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	narrow := DefaultConfig()
	narrow.VerticalFOVTop = geom.Deg2Rad(2) // HDL-64E ceiling
	dets := []*Detector{NewDefault(), New(CoopConfig(DefaultConfig(), 10)), New(narrow)}
	var tall, low, truncated, tiledGated, kept int
	for ci, cp := range fitTestClusters(rng) {
		parts, want := splitCluster(cp), refSplitCluster(cp)
		if len(parts) != len(want) {
			t.Fatalf("cluster %d: %d parts, reference %d", ci, len(parts), len(want))
		}
		tiled := len(parts) > 1
		if !tiled {
			parts = append(parts, clusterPart{clusterPoints: cp})
			want = append(want, cp)
		}
		for pi, part := range parts {
			for di, d := range dets {
				for _, groundZ := range []float64{-1.73, -1.2, 0} {
					got, ok := d.bestCandidate(part, groundZ)
					ref, refOK := refBestCandidate(d.cfg, want[pi], groundZ)
					if ok != refOK || !sameBits(got, ref) {
						t.Fatalf("cluster %d part %d detector %d ground %v: (%+v, %v), reference (%+v, %v)",
							ci, pi, di, groundZ, got, ok, ref, refOK)
					}
					pr := part.profile()
					if !plausibleProfile(pr.zMax-groundZ, pr.topEl, d.cfg.VerticalFOVTop) && tiled {
						tiledGated++
					}
					switch top := pr.zMax - groundZ; {
					case pr.topEl >= d.cfg.VerticalFOVTop-truncationMargin:
						truncated++
					case top > maxCarTop:
						tall++
					case top < minCarTop:
						low++
					case ok:
						kept++
					}
				}
			}
		}
	}
	t.Logf("gated: %d truncated, %d tall, %d low (%d tiled parts); %d kept", truncated, tall, low, tiledGated, kept)
	if truncated == 0 || tall == 0 || low == 0 || tiledGated == 0 || kept == 0 {
		t.Fatalf("regimes covered: %d truncated, %d tall, %d low, %d tiled parts gated, %d kept; want each",
			truncated, tall, low, tiledGated, kept)
	}
}

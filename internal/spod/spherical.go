// Package spod implements SPOD — Sparse Point-cloud Object Detection —
// the paper's 3D car detector, architected after VoxelNet/SECOND:
//
//	spherical-projection preprocessing  (SqueezeSeg-style dense representation)
//	→ ground removal
//	→ voxel feature encoding            (VFE analogue)
//	→ sparse 3D convolution middle layers
//	→ BEV projection + region proposal  (SSD-style, anchors + NMS)
//	→ evidence-based score head
//
// The published SPOD uses a trained deep network; no Go deep-learning
// stack (or trained weights) exists, so each stage here is the same
// algorithmic structure with fixed analytic weights. The resulting score
// is monotone in point evidence — count, surface coverage and height
// consistency — which preserves every behaviour the paper's evaluation
// measures: sparse or occluded objects score low or are missed, and
// cooperatively merged clouds raise scores and recover hidden objects.
package spod

import (
	"math"
	"math/bits"

	"cooper/internal/geom"
	"cooper/internal/pointcloud"
)

// echo is a single return stored in a range-image cell. Cells keep up to
// two echoes (near and far) so that cooperative clouds — where another
// vehicle contributes returns from behind an occluder — survive
// re-projection intact, the way dual-return LiDARs report. Whether a
// cell's echo is valid lives in the image's occupancy bitmaps, not here.
type echo struct {
	rng       float64
	elevation float64
	azimuth   float64
	intensity float64
}

// RangeImage is a spherical projection of a point cloud: rows index
// elevation, columns azimuth. It provides the compact dense representation
// the SPOD preprocessing stage feeds to the voxel feature extractor.
//
// The occupancy bitmaps nearOcc and farOcc (one bit per cell, cell order)
// are the only validity record: a frame clears just the bitmaps, and an
// echo under a clear bit is stale from an earlier frame and never read.
// Every per-frame pass — insertion, inpainting, reconstruction — then
// costs time in proportion to the points, not to the image.
type RangeImage struct {
	Rows, Cols   int
	MinEl, MaxEl float64
	// near and far are row-major echo planes, two echoes per cell, carved
	// from the one backing array echoes.
	echoes, near, far []echo
	// nearOcc, farOcc and inpaint's staging bitmap fillOcc are carved
	// from occ.
	occ, nearOcc, farOcc, fillOcc []uint64
	elStep, azStep                float64
}

// occupied reports whether cell idx's bit is set in occ.
func occupied(occ []uint64, idx int) bool { return occ[idx>>6]&(1<<(idx&63)) != 0 }

// occupy sets cell idx's bit in occ.
func occupy(occ []uint64, idx int) { occ[idx>>6] |= 1 << (idx & 63) }

// SphericalConfig controls the projection resolution.
type SphericalConfig struct {
	Rows, Cols   int
	MinEl, MaxEl float64 // elevation range, radians
	// InpaintGaps fills single-column gaps between returns at similar
	// range, mildly densifying sparse scans (the "adapt low density"
	// element of SPOD's preprocessing).
	InpaintGaps bool
	// EchoGap is the minimum range separation for a second echo, metres.
	EchoGap float64
}

// DefaultSphericalConfig covers both HDL-64E and VLP-16 elevation ranges
// at a resolution fine enough (0.42° rows, 0.2° columns) not to merge
// adjacent HDL-64E beams or azimuth firings.
func DefaultSphericalConfig() SphericalConfig {
	return SphericalConfig{
		Rows:        96,
		Cols:        1800,
		MinEl:       geom.Deg2Rad(-25),
		MaxEl:       geom.Deg2Rad(15.5),
		InpaintGaps: true,
		EchoGap:     1.0,
	}
}

// projectSpherical builds the range image inside the scratch's buffers:
// the returned image is &s.img, valid until the scratch's next frame.
func projectSpherical(c *pointcloud.Cloud, cfg SphericalConfig, s *DetectorScratch) *RangeImage {
	cells := cfg.Rows * cfg.Cols
	img := &s.img
	img.echoes = grow(img.echoes, 2*cells)
	img.near, img.far = img.echoes[:cells], img.echoes[cells:]
	words := (cells + 63) / 64
	img.occ = grow(img.occ, 3*words)
	clear(img.occ)
	img.nearOcc, img.farOcc, img.fillOcc = img.occ[:words], img.occ[words:2*words], img.occ[2*words:]
	img.Rows, img.Cols = cfg.Rows, cfg.Cols
	img.MinEl, img.MaxEl = cfg.MinEl, cfg.MaxEl
	img.elStep = (cfg.MaxEl - cfg.MinEl) / float64(cfg.Rows)
	img.azStep = 2 * math.Pi / float64(cfg.Cols)
	// Bin and insert in one pass, in point order: which echoes a cell
	// keeps depends on arrival order.
	for i := 0; i < c.Len(); i++ {
		if e, idx, ok := img.bin(c.At(i), cfg); ok {
			img.insert(idx, e, cfg.EchoGap)
		}
	}
	if cfg.InpaintGaps {
		img.inpaint()
	}
	return img
}

// bin computes a point's range-image cell and echo. Elevations outside
// [MinEl, MaxEl) are dropped at both edges.
func (img *RangeImage) bin(p pointcloud.Point, cfg SphericalConfig) (echo, int, bool) {
	r := p.Range()
	if r == 0 {
		return echo{}, 0, false
	}
	el := math.Asin(geom.Clamp(p.Z/r, -1, 1))
	az := math.Atan2(p.Y, p.X)
	// The int conversion truncates toward zero, so without the el < MinEl
	// test an elevation up to one row below the band would land in row 0.
	row := int((el - cfg.MinEl) / img.elStep)
	if el < cfg.MinEl || row < 0 || row >= cfg.Rows {
		return echo{}, 0, false
	}
	col := int((az + math.Pi) / img.azStep)
	if col < 0 {
		col = 0
	}
	if col >= cfg.Cols {
		col = cfg.Cols - 1
	}
	e := echo{rng: r, elevation: el, azimuth: az, intensity: p.Reflectance}
	return e, row*cfg.Cols + col, true
}

// insert places an echo in a cell, keeping the nearest return as primary
// and one sufficiently separated farther return as secondary.
func (img *RangeImage) insert(idx int, e echo, echoGap float64) {
	n := &img.near[idx]
	if !occupied(img.nearOcc, idx) {
		*n = e
		occupy(img.nearOcc, idx)
		return
	}
	f := &img.far[idx]
	hasFar := occupied(img.farOcc, idx)
	switch {
	case e.rng < n.rng:
		// New nearest; previous near may become the far echo.
		if prev := *n; prev.rng-e.rng >= echoGap && (!hasFar || prev.rng < f.rng) {
			*f = prev
			occupy(img.farOcc, idx)
		}
		*n = e
	case e.rng-n.rng >= echoGap && (!hasFar || e.rng < f.rng):
		*f = e
		occupy(img.farOcc, idx)
	}
}

// inpaint fills single-column gaps in each row when both horizontal
// neighbours hold primary returns at similar range.
//
// A fill needs both neighbours occupied before the pass, so a filled
// cell is never the neighbour of another fill, and every candidate is
// the right-hand neighbour (with the column wrap) of an occupied cell.
// The pass therefore visits only occupied cells, and it stages the fills
// in fillOcc and sets their bits at the end, so candidates see the
// pre-pass occupancy — the same fills a full scan of the image finds.
func (img *RangeImage) inpaint() {
	const maxJump = 0.5 // metres between neighbours for interpolation
	row, base := 0, 0
	for w, word := range img.nearOcc {
		for ; word != 0; word &= word - 1 {
			left := w<<6 + bits.TrailingZeros64(word)
			if left >= base+img.Cols {
				row = left / img.Cols
				base = row * img.Cols
			}
			cell := left + 1
			if cell == base+img.Cols {
				cell = base
			}
			right := cell + 1
			if right == base+img.Cols {
				right = base
			}
			if occupied(img.nearOcc, cell) || !occupied(img.nearOcc, right) {
				continue
			}
			ln, rn := &img.near[left], &img.near[right]
			if math.Abs(ln.rng-rn.rng) > maxJump {
				continue
			}
			el := img.MinEl + (float64(row)+0.5)*img.elStep
			az := -math.Pi + (float64(cell-base)+0.5)*img.azStep
			// The cell's bit stays clear until the pass ends, and no
			// candidate reads a clear cell, so its echo can go in now.
			img.near[cell] = echo{
				rng:       (ln.rng + rn.rng) / 2,
				elevation: el,
				azimuth:   az,
				intensity: (ln.intensity + rn.intensity) / 2,
			}
			occupy(img.fillOcc, cell)
		}
	}
	for w, fills := range img.fillOcc {
		img.nearOcc[w] |= fills
	}
}

// ToCloudInto reconstructs a point cloud from the range image (both
// echoes) into dst (reset first), so a reused cloud buffer makes the
// reconstruction allocation-free. This is the dense, duplicate-free
// representation the downstream stages consume. It walks the
// occupied cells in cell order and emits each cell's near echo, then its
// far one (a far echo implies a near one).
func (img *RangeImage) ToCloudInto(dst *pointcloud.Cloud) *pointcloud.Cloud {
	out := dst
	out.Reset()
	emit := func(e *echo) {
		sinEl, cosEl := math.Sincos(e.elevation)
		sinAz, cosAz := math.Sincos(e.azimuth)
		out.AppendXYZR(e.rng*cosEl*cosAz, e.rng*cosEl*sinAz, e.rng*sinEl, e.intensity)
	}
	for w, word := range img.nearOcc {
		far := img.farOcc[w]
		for ; word != 0; word &= word - 1 {
			b := bits.TrailingZeros64(word)
			cell := w<<6 + b
			emit(&img.near[cell])
			if far&(1<<b) != 0 {
				emit(&img.far[cell])
			}
		}
	}
	return out
}

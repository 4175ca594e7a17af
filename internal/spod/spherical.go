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

	"cooper/internal/geom"
	"cooper/internal/parallel"
	"cooper/internal/pointcloud"
)

// echo is a single return stored in a range-image cell. Cells keep up to
// two echoes (near and far) so that cooperative clouds — where another
// vehicle contributes returns from behind an occluder — survive
// re-projection intact, the way dual-return LiDARs report.
type echo struct {
	rng       float64
	elevation float64
	azimuth   float64
	intensity float64
	valid     bool
}

// RangeImage is a spherical projection of a point cloud: rows index
// elevation, columns azimuth. It provides the compact dense representation
// the SPOD preprocessing stage feeds to the voxel feature extractor.
type RangeImage struct {
	Rows, Cols     int
	MinEl, MaxEl   float64
	near, far      []echo // row-major, two echoes per cell
	elStep, azStep float64
}

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
	// Workers bounds the goroutines used for the per-point projection
	// math; < 1 selects one per CPU. Output is identical at any count:
	// cell binning runs in parallel, echo insertion stays sequential in
	// point order (insertion is order-sensitive).
	Workers int
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

// binnedEcho stages one point's binned echo for the parallel projection
// path; idx < 0 marks a point that fell outside the image.
type binnedEcho struct {
	e   echo
	idx int32
}

// projectSpherical builds the range image inside the scratch's buffers
// when s is non-nil (the returned image is &s.img, valid until the
// scratch's next frame); with a nil scratch it allocates a caller-owned
// image.
func projectSpherical(c *pointcloud.Cloud, cfg SphericalConfig, s *DetectorScratch) *RangeImage {
	cells := cfg.Rows * cfg.Cols
	var img *RangeImage
	if s != nil {
		img = &s.img
		img.near = grow(img.near, cells)
		img.far = grow(img.far, cells)
		clear(img.near)
		clear(img.far)
	} else {
		img = &RangeImage{near: make([]echo, cells), far: make([]echo, cells)}
	}
	img.Rows, img.Cols = cfg.Rows, cfg.Cols
	img.MinEl, img.MaxEl = cfg.MinEl, cfg.MaxEl
	img.elStep = (cfg.MaxEl - cfg.MinEl) / float64(cfg.Rows)
	img.azStep = 2 * math.Pi / float64(cfg.Cols)
	if parallel.Normalize(cfg.Workers) == 1 {
		// Single-worker fast path: fused bin-and-insert with no staging
		// buffer. The two-phase path below builds an identical image (see
		// TestProjectSphericalWorkersIdentical).
		for i := 0; i < c.Len(); i++ {
			if e, idx, ok := img.bin(c.At(i), cfg); ok {
				img.insert(idx, e, cfg.EchoGap)
			}
		}
	} else {
		// Phase 1 — the per-point trigonometry (range, elevation, azimuth,
		// cell binning) is pure, so it fans out across point chunks; slot i
		// holds point i's binned echo.
		var binned []binnedEcho
		if s != nil {
			s.binned = grow(s.binned, c.Len())
			binned = s.binned
		} else {
			binned = make([]binnedEcho, c.Len())
		}
		const chunk = 4096
		nChunks := (c.Len() + chunk - 1) / chunk
		parallel.For(cfg.Workers, nChunks, func(ci int) {
			lo, hi := ci*chunk, (ci+1)*chunk
			if hi > c.Len() {
				hi = c.Len()
			}
			for i := lo; i < hi; i++ {
				e, idx, ok := img.bin(c.At(i), cfg)
				if ok {
					binned[i].e, binned[i].idx = e, int32(idx)
				} else {
					binned[i].idx = -1
				}
			}
		})

		// Phase 2 — echo insertion keeps near/far echoes whose selection
		// depends on arrival order, so it replays sequentially in point
		// order; the image is therefore byte-identical at any worker count.
		for i := range binned {
			if binned[i].idx >= 0 {
				img.insert(int(binned[i].idx), binned[i].e, cfg.EchoGap)
			}
		}
	}
	if cfg.InpaintGaps {
		img.inpaint()
	}
	return img
}

// bin computes a point's range-image cell and echo — the pure per-point
// work both projection paths share.
func (img *RangeImage) bin(p pointcloud.Point, cfg SphericalConfig) (echo, int, bool) {
	r := p.Range()
	if r == 0 {
		return echo{}, 0, false
	}
	el := math.Asin(geom.Clamp(p.Z/r, -1, 1))
	az := math.Atan2(p.Y, p.X)
	row := int((el - cfg.MinEl) / img.elStep)
	if row < 0 || row >= cfg.Rows {
		return echo{}, 0, false
	}
	col := int((az + math.Pi) / img.azStep)
	if col < 0 {
		col = 0
	}
	if col >= cfg.Cols {
		col = cfg.Cols - 1
	}
	e := echo{rng: r, elevation: el, azimuth: az, intensity: p.Reflectance, valid: true}
	return e, row*cfg.Cols + col, true
}

// insert places an echo in a cell, keeping the nearest return as primary
// and one sufficiently separated farther return as secondary.
func (img *RangeImage) insert(idx int, e echo, echoGap float64) {
	n := &img.near[idx]
	f := &img.far[idx]
	switch {
	case !n.valid:
		*n = e
	case e.rng < n.rng:
		// New nearest; previous near may become the far echo.
		if prev := *n; prev.rng-e.rng >= echoGap && (!f.valid || prev.rng < f.rng) {
			*f = prev
		}
		*n = e
	case e.rng-n.rng >= echoGap && (!f.valid || e.rng < f.rng):
		*f = e
	}
}

// inpaint fills single-column gaps in each row when both horizontal
// neighbours hold primary returns at similar range.
func (img *RangeImage) inpaint() {
	const maxJump = 0.5 // metres between neighbours for interpolation
	for r := 0; r < img.Rows; r++ {
		base := r * img.Cols
		for cIdx := 0; cIdx < img.Cols; cIdx++ {
			cell := base + cIdx
			if img.near[cell].valid {
				continue
			}
			left := base + (cIdx+img.Cols-1)%img.Cols
			right := base + (cIdx+1)%img.Cols
			ln, rn := img.near[left], img.near[right]
			if !ln.valid || !rn.valid || math.Abs(ln.rng-rn.rng) > maxJump {
				continue
			}
			el := img.MinEl + (float64(r)+0.5)*img.elStep
			az := -math.Pi + (float64(cIdx)+0.5)*img.azStep
			img.near[cell] = echo{
				rng:       (ln.rng + rn.rng) / 2,
				elevation: el,
				azimuth:   az,
				intensity: (ln.intensity + rn.intensity) / 2,
				valid:     true,
			}
		}
	}
}

// Occupied returns the number of cells holding at least one echo.
func (img *RangeImage) Occupied() int {
	n := 0
	for _, e := range img.near {
		if e.valid {
			n++
		}
	}
	return n
}

// ToCloud reconstructs a point cloud from the range image (both echoes).
// This is the dense, duplicate-free representation the downstream stages
// consume.
func (img *RangeImage) ToCloud() *pointcloud.Cloud {
	return img.ToCloudInto(pointcloud.New(img.Occupied()))
}

// ToCloudInto is ToCloud appending into dst (reset first) so a reused
// cloud buffer makes the reconstruction allocation-free.
func (img *RangeImage) ToCloudInto(dst *pointcloud.Cloud) *pointcloud.Cloud {
	out := dst
	out.Reset()
	emit := func(e echo) {
		if !e.valid {
			return
		}
		cosEl := math.Cos(e.elevation)
		out.AppendXYZR(
			e.rng*cosEl*math.Cos(e.azimuth),
			e.rng*cosEl*math.Sin(e.azimuth),
			e.rng*math.Sin(e.elevation),
			e.intensity,
		)
	}
	for i := range img.near {
		emit(img.near[i])
		emit(img.far[i])
	}
	return out
}

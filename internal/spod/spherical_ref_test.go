package spod

import (
	"math"
	"math/rand"
	"testing"

	"cooper/internal/geom"
	"cooper/internal/pointcloud"
)

// The ref* range image below is the spherical projection as it stood
// before the occupancy bitmaps: a valid flag in every echo, both echo
// planes cleared per frame, an inpaint pass over every cell with fills
// written in place, and a reconstruction scanning every near and far
// echo with separate Cos and Sin calls. Its binning drops elevations
// below MinEl, the one intended change to the output (see
// TestBinElevationEdges). It is the reference the projection is pinned
// against.

type refEcho struct {
	rng, elevation, azimuth, intensity float64
	valid                              bool
}

type refRangeImage struct {
	rows, cols     int
	minEl          float64
	near, far      []refEcho
	elStep, azStep float64
}

func refProjectSpherical(c *pointcloud.Cloud, cfg SphericalConfig) *refRangeImage {
	img := &refRangeImage{
		rows: cfg.Rows, cols: cfg.Cols, minEl: cfg.MinEl,
		near:   make([]refEcho, cfg.Rows*cfg.Cols),
		far:    make([]refEcho, cfg.Rows*cfg.Cols),
		elStep: (cfg.MaxEl - cfg.MinEl) / float64(cfg.Rows),
		azStep: 2 * math.Pi / float64(cfg.Cols),
	}
	for i := 0; i < c.Len(); i++ {
		p := c.At(i)
		r := p.Range()
		if r == 0 {
			continue
		}
		el := math.Asin(geom.Clamp(p.Z/r, -1, 1))
		az := math.Atan2(p.Y, p.X)
		row := int((el - cfg.MinEl) / img.elStep)
		if el < cfg.MinEl || row < 0 || row >= cfg.Rows {
			continue
		}
		col := int((az + math.Pi) / img.azStep)
		if col < 0 {
			col = 0
		}
		if col >= cfg.Cols {
			col = cfg.Cols - 1
		}
		img.insert(row*cfg.Cols+col, refEcho{rng: r, elevation: el, azimuth: az, intensity: p.Reflectance, valid: true}, cfg.EchoGap)
	}
	if cfg.InpaintGaps {
		img.inpaint()
	}
	return img
}

func (img *refRangeImage) insert(idx int, e refEcho, echoGap float64) {
	n := &img.near[idx]
	f := &img.far[idx]
	switch {
	case !n.valid:
		*n = e
	case e.rng < n.rng:
		if prev := *n; prev.rng-e.rng >= echoGap && (!f.valid || prev.rng < f.rng) {
			*f = prev
		}
		*n = e
	case e.rng-n.rng >= echoGap && (!f.valid || e.rng < f.rng):
		*f = e
	}
}

func (img *refRangeImage) inpaint() {
	const maxJump = 0.5
	for r := 0; r < img.rows; r++ {
		base := r * img.cols
		for cIdx := 0; cIdx < img.cols; cIdx++ {
			cell := base + cIdx
			if img.near[cell].valid {
				continue
			}
			left := base + (cIdx+img.cols-1)%img.cols
			right := base + (cIdx+1)%img.cols
			ln, rn := img.near[left], img.near[right]
			if !ln.valid || !rn.valid || math.Abs(ln.rng-rn.rng) > maxJump {
				continue
			}
			img.near[cell] = refEcho{
				rng:       (ln.rng + rn.rng) / 2,
				elevation: img.minEl + (float64(r)+0.5)*img.elStep,
				azimuth:   -math.Pi + (float64(cIdx)+0.5)*img.azStep,
				intensity: (ln.intensity + rn.intensity) / 2,
				valid:     true,
			}
		}
	}
}

func (img *refRangeImage) occupied() int {
	n := 0
	for _, e := range img.near {
		if e.valid {
			n++
		}
	}
	return n
}

func (img *refRangeImage) toCloud() *pointcloud.Cloud {
	out := pointcloud.New(img.occupied())
	emit := func(e refEcho) {
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

// cellPoint returns a point at range r through the centre of cell
// (row, col) of cfg's image.
func cellPoint(cfg SphericalConfig, row, col int, r float64) pointcloud.Point {
	elStep := (cfg.MaxEl - cfg.MinEl) / float64(cfg.Rows)
	azStep := 2 * math.Pi / float64(cfg.Cols)
	el := cfg.MinEl + (float64(row)+0.5)*elStep
	az := -math.Pi + (float64(col)+0.5)*azStep
	return pointcloud.Point{
		X: r * math.Cos(el) * math.Cos(az), Y: r * math.Cos(el) * math.Sin(az), Z: r * math.Sin(el),
		Reflectance: 0.5,
	}
}

// wrapRing fills every other column of rows 10–13 at near-constant
// range. With Cols even, the odd rows leave column 0 empty between
// columns Cols−1 and 1, and the even rows leave column Cols−1 empty
// between Cols−2 and 0, so inpainting fills across the wrap on both
// sides.
func wrapRing(cfg SphericalConfig, rng *rand.Rand) *pointcloud.Cloud {
	c := pointcloud.New(0)
	for row := 10; row < 14; row++ {
		for col := row % 2; col < cfg.Cols; col += 2 {
			c.Append(cellPoint(cfg, row, col, 20+0.3*rng.Float64()))
		}
	}
	return c
}

// echoStack puts several returns, in random order, through each of a
// set of random cell centres: near and far echoes, returns within the
// echo gap of each other, third surfaces and exact duplicates.
func echoStack(cfg SphericalConfig, rng *rand.Rand, cells int) *pointcloud.Cloud {
	c := pointcloud.New(0)
	for i := 0; i < cells; i++ {
		row, col := rng.Intn(cfg.Rows), rng.Intn(cfg.Cols)
		for k := rng.Intn(5) + 1; k > 0; k-- {
			p := cellPoint(cfg, row, col, 3+rng.Float64()*50)
			c.Append(p)
			if rng.Intn(4) == 0 {
				c.Append(p)
			}
		}
	}
	return c
}

// bandEdges holds zero-range points and points outside the elevation
// band (above, below, and less than one row below MinEl), interleaved
// with in-band ones.
func bandEdges(cfg SphericalConfig, rng *rand.Rand) *pointcloud.Cloud {
	elStep := (cfg.MaxEl - cfg.MinEl) / float64(cfg.Rows)
	c := pointcloud.New(0)
	for i := 0; i < 400; i++ {
		var el float64
		switch i % 5 {
		case 0:
			c.AppendXYZR(0, 0, 0, 0.5)
			continue
		case 1:
			el = cfg.MinEl - rng.Float64()*elStep
		case 2:
			el = cfg.MaxEl + rng.Float64()*geom.Deg2Rad(20)
		case 3:
			el = cfg.MinEl - elStep - rng.Float64()*geom.Deg2Rad(20)
		default:
			el = cfg.MinEl + rng.Float64()*(cfg.MaxEl-cfg.MinEl)
		}
		az, r := rng.Float64()*2*math.Pi-math.Pi, 2+rng.Float64()*40
		c.AppendXYZR(r*math.Cos(el)*math.Cos(az), r*math.Cos(el)*math.Sin(az), r*math.Sin(el), rng.Float64())
	}
	return c
}

// TestProjectSphericalMatchesReference pins the range image — insertion,
// inpainting, Occupied and the reconstructed cloud — bit for bit to the
// pre-bitmap projection, at one worker and on the two-phase parallel
// path, with one scratch reused across every frame and image size so
// stale echoes from earlier frames sit under clear bits.
func TestProjectSphericalMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	def := DefaultSphericalConfig()
	tiny := func(rows, cols int) SphericalConfig {
		cfg := def
		cfg.Rows, cfg.Cols = rows, cols
		return cfg
	}
	type frame struct {
		name  string
		cfg   SphericalConfig
		cloud *pointcloud.Cloud
	}
	noisy := noisyCloud(20000)
	frames := []frame{
		{"noisy", def, noisy},
		{"spherical", def, sphericalTestCloud(6000, 3)},
		{"duplicates", def, noisy.Merge(noisy.Clone())},
		{"echoes", def, echoStack(def, rng, 3000)},
		{"wrap", def, wrapRing(def, rng)},
		{"wrap small", tiny(24, 180), wrapRing(tiny(24, 180), rng)},
		{"band edges", def, bandEdges(def, rng)},
		{"cols 1", tiny(16, 1), echoStack(tiny(16, 1), rng, 40)},
		{"cols 2", tiny(16, 2), wrapRing(tiny(16, 2), rng).Merge(echoStack(tiny(16, 2), rng, 40))},
		{"cols 3", tiny(16, 3), wrapRing(tiny(16, 3), rng)},
		{"empty", def, pointcloud.New(0)},
		{"noisy again", def, noisy},
	}
	s := NewScratch()
	for _, workers := range []int{1, 4} {
		for _, inpaint := range []bool{false, true} {
			for _, f := range frames {
				cfg := f.cfg
				cfg.Workers, cfg.InpaintGaps = workers, inpaint
				want := refProjectSpherical(f.cloud, cfg)
				img := projectSpherical(f.cloud, cfg, s)
				if got, ref := img.Occupied(), want.occupied(); got != ref {
					t.Fatalf("%s (workers %d, inpaint %v): Occupied %d, reference %d", f.name, workers, inpaint, got, ref)
				}
				got, ref := img.ToCloud(), want.toCloud()
				if !sameBits(got.Points(), ref.Points()) {
					t.Fatalf("%s (workers %d, inpaint %v): cloud of %d points differs from the reference's %d",
						f.name, workers, inpaint, got.Len(), ref.Len())
				}
				if dst := img.ToCloudInto(pointcloud.New(0)); !sameBits(dst.Points(), ref.Points()) {
					t.Fatalf("%s (workers %d, inpaint %v): ToCloudInto differs from the reference", f.name, workers, inpaint)
				}
			}
		}
	}
	// The wrap frames must exercise fills at both ends of a row.
	for _, cfg := range []SphericalConfig{def, tiny(24, 180)} {
		img := refProjectSpherical(wrapRing(cfg, rng), cfg)
		for _, row := range []int{10, 11} {
			first, last := img.near[row*cfg.Cols], img.near[row*cfg.Cols+cfg.Cols-1]
			if !first.valid || !last.valid {
				t.Fatalf("Cols %d row %d: wrap cells not filled (col 0 %v, col Cols-1 %v)", cfg.Cols, row, first.valid, last.valid)
			}
		}
	}
}

// TestBinElevationEdges checks that binning drops elevations outside
// [MinEl, MaxEl) at both edges. The lower edge once truncated toward
// row 0: an HDL-32E's −25.34° beam landed in row 0 of the default image
// while its −26.67° beam was dropped.
func TestBinElevationEdges(t *testing.T) {
	cfg := DefaultSphericalConfig()
	img := projectSpherical(pointcloud.New(0), cfg, NewScratch())
	step := img.elStep
	cases := []struct {
		name   string
		el     float64
		keep   bool
		wantRw int
	}{
		{"far below the band", cfg.MinEl - 3*step, false, 0},
		{"one and a half rows below", cfg.MinEl - 1.5*step, false, 0},
		{"half a row below", cfg.MinEl - 0.5*step, false, 0},
		{"HDL-32E -25.34 deg", geom.Deg2Rad(-25.34), false, 0},
		{"HDL-32E -26.67 deg", geom.Deg2Rad(-26.67), false, 0},
		{"just inside the bottom", cfg.MinEl + 0.25*step, true, 0},
		{"HDL-64E -24.9 deg", geom.Deg2Rad(-24.9), true, 0},
		{"just inside the top", cfg.MaxEl - 0.25*step, true, cfg.Rows - 1},
		{"half a row above", cfg.MaxEl + 0.5*step, false, 0},
		{"far above the band", cfg.MaxEl + 3*step, false, 0},
	}
	for _, tc := range cases {
		r, az := 15.0, 0.3
		p := pointcloud.Point{X: r * math.Cos(tc.el) * math.Cos(az), Y: r * math.Cos(tc.el) * math.Sin(az), Z: r * math.Sin(tc.el)}
		_, idx, ok := img.bin(p, cfg)
		if ok != tc.keep {
			t.Errorf("%s: kept %v, want %v", tc.name, ok, tc.keep)
			continue
		}
		if ok && idx/cfg.Cols != tc.wantRw {
			t.Errorf("%s: row %d, want %d", tc.name, idx/cfg.Cols, tc.wantRw)
		}
	}
}

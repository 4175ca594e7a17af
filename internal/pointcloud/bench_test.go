package pointcloud

import (
	"math"
	"math/rand"
	"testing"

	"cooper/internal/geom"
)

// The Wire benchmarks compare the v2 per-frame path (self-contained
// quantized encodes) with the v3 delta stream on the same noisy
// re-observation workload. One op is one frame through encode + decode;
// bytes/frame is reported as a metric so CI can track the wire cost of
// each path (BENCH_wire.json).

const (
	benchFrames = 32
	benchPoints = 2000
)

func benchStream(b *testing.B) []*Cloud {
	b.Helper()
	frames := noisyStream(benchFrames, benchPoints, 9)
	b.ReportAllocs()
	b.ResetTimer()
	return frames
}

func BenchmarkWireV2Stream(b *testing.B) {
	frames := benchStream(b)
	dst := GetCloud()
	defer PutCloud(dst)
	var bytes int64
	for i := 0; i < b.N; i++ {
		frame := frames[i%len(frames)]
		data, err := EncodeQuantized(frame)
		if err != nil {
			b.Fatal(err)
		}
		if err := DecodeInto(data, dst); err != nil {
			b.Fatal(err)
		}
		bytes += int64(len(data))
	}
	b.ReportMetric(float64(bytes)/float64(b.N), "bytes/frame")
}

func BenchmarkWireV3Stream(b *testing.B) {
	frames := benchStream(b)
	var enc DeltaEncoder
	var dec DeltaDecoder
	dst := GetCloud()
	defer PutCloud(dst)
	var bytes int64
	for i := 0; i < b.N; i++ {
		frame := frames[i%len(frames)]
		data, _, err := enc.Encode(frame, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if err := dec.DecodeInto(data, dst); err != nil {
			b.Fatal(err)
		}
		bytes += int64(len(data))
	}
	b.ReportMetric(float64(bytes)/float64(b.N), "bytes/frame")
}

// BenchmarkWireDecodeAlloc pins the allocation contrast between the
// allocating Decode and the pooled zero-copy DecodeInto (the hub's and
// the fusion backends' hot path): with -benchmem, DecodeInto must show
// 0 allocs/op once the destination capacity is warm.
func BenchmarkWireDecodeAlloc(b *testing.B) {
	frame := noisyStream(1, benchPoints, 9)[0]
	data, err := EncodeQuantized(frame)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Decode(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("DecodeInto", func(b *testing.B) {
		dst := GetCloud()
		defer PutCloud(dst)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := DecodeInto(data, dst); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkGridIndexNearestWithin measures the ICP correspondence query:
// one op is 1024 NearestWithin lookups at r = cell = 1 m (ICPConfig's
// MaxPairDistance) against a 20k-point cloud of walls over scattered
// clutter, the queries being cloud points displaced by up to 0.5 m and
// one in eight a point far from any structure.
func BenchmarkGridIndexNearestWithin(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	c := New(20000)
	for i := 0; i < 20000; i++ {
		switch i % 4 {
		case 0: // wall along x
			c.AppendXYZR(rng.Float64()*60-30, 12+rng.NormFloat64()*0.03, rng.Float64()*3-1, 0)
		case 1: // wall along y
			c.AppendXYZR(-20+rng.NormFloat64()*0.03, rng.Float64()*60-30, rng.Float64()*3-1, 0)
		default: // clutter
			c.AppendXYZR(rng.Float64()*60-30, rng.Float64()*60-30, rng.Float64()*2-1, 0)
		}
	}
	idx := NewGridIndex(c, 1)
	queries := make([]geom.Vec3, 1024)
	for i := range queries {
		if i%8 == 7 {
			queries[i] = geom.V3(rng.Float64()*200+100, rng.Float64()*60-30, 0)
			continue
		}
		p := c.At(rng.Intn(c.Len())).Pos()
		queries[i] = geom.V3(p.X+rng.Float64()-0.5, p.Y+rng.Float64()-0.5, p.Z+rng.Float64()-0.5)
	}
	b.ReportAllocs()
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			if j, _ := idx.NearestWithin(q, 1); j >= 0 {
				hits++
			}
		}
	}
	if hits == 0 {
		b.Fatal("no query found a neighbour")
	}
}

// mergedViews builds a cooperative merge of four vehicles' scans of one
// street: each view samples the shared ground and twelve box-shaped
// obstacles around its own origin, denser near the sensor, with 2 cm
// range noise, so the views overlap where their coverage does.
func mergedViews(perView int, seed int64) *Cloud {
	rng := rand.New(rand.NewSource(seed))
	type box struct{ x, y, w, l, h float64 }
	boxes := make([]box, 12)
	for i := range boxes {
		boxes[i] = box{x: rng.Float64()*70 - 25, y: rng.Float64()*30 - 15, w: 1.8 + rng.Float64(), l: 4 + rng.Float64()*2, h: 1.5 + rng.Float64()}
	}
	origins := [][2]float64{{0, 0}, {20, 5}, {-15, -10}, {35, -3}}
	c := New(perView * len(origins))
	for _, o := range origins {
		for i := 0; i < perView; i++ {
			if i%5 < 3 { // ground, density falling with range
				r := 3 + 37*rng.Float64()*rng.Float64()
				az := rng.Float64() * 2 * math.Pi
				c.AppendXYZR(o[0]+r*math.Cos(az), o[1]+r*math.Sin(az), -1.7+rng.NormFloat64()*0.02, rng.Float64()*0.3)
				continue
			}
			b := boxes[rng.Intn(len(boxes))]
			x, y := b.x+(rng.Float64()-0.5)*b.l, b.y+(rng.Float64()-0.5)*b.w
			if rng.Intn(2) == 0 { // the face toward the sensor
				x = b.x - math.Copysign(b.l/2, b.x-o[0])
			} else {
				y = b.y - math.Copysign(b.w/2, b.y-o[1])
			}
			c.AppendXYZR(x+rng.NormFloat64()*0.02, y+rng.NormFloat64()*0.02, -1.7+rng.Float64()*b.h, 0.3+rng.Float64()*0.7)
		}
	}
	return c
}

// BenchmarkVoxelDownsample is the merged-cloud dedup that dominates the
// spod.preprocess span of a cooperative detection: one op deduplicates a
// ~110k-point four-view merge at the cooperative detector's 0.10 m
// dedup voxel into a reused destination with a reused VoxelScratch, as
// the detector's scratch holds one.
func BenchmarkVoxelDownsample(b *testing.B) {
	c := mergedViews(27500, 5)
	dst := GetCloud()
	defer PutCloud(dst)
	var s VoxelScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.VoxelDownsampleInto(dst, 0.10, &s)
	}
	b.ReportMetric(float64(dst.Len()), "voxels")
}

package pointcloud

import (
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

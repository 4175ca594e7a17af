package pointcloud

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestRawRoundTrip(t *testing.T) {
	c := randomCloud(257, 50)
	got, err := Decode(EncodeRaw(c))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Len() != c.Len() {
		t.Fatalf("len = %d, want %d", got.Len(), c.Len())
	}
	for i := 0; i < c.Len(); i++ {
		// Raw codec stores float32: expect float32 precision.
		if !got.At(i).Pos().AlmostEqual(c.At(i).Pos(), 1e-4) {
			t.Fatalf("point %d: %v vs %v", i, got.At(i), c.At(i))
		}
	}
}

func TestQuantizedRoundTrip(t *testing.T) {
	c := randomCloud(500, 51)
	enc, err := EncodeQuantized(c)
	if err != nil {
		t.Fatalf("EncodeQuantized: %v", err)
	}
	got, err := Decode(enc)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Len() != c.Len() {
		t.Fatalf("len = %d, want %d", got.Len(), c.Len())
	}
	for i := 0; i < c.Len(); i++ {
		// Quantized codec is exact to half a quant step.
		if !got.At(i).Pos().AlmostEqual(c.At(i).Pos(), QuantStep/2+1e-9) {
			t.Fatalf("point %d: %v vs %v", i, got.At(i), c.At(i))
		}
		if math.Abs(got.At(i).Reflectance-c.At(i).Reflectance) > 1.0/255+1e-9 {
			t.Fatalf("reflectance %d: %v vs %v", i, got.At(i).Reflectance, c.At(i).Reflectance)
		}
	}
}

func TestQuantizedRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		c := randomCloud(64, seed)
		enc, err := EncodeQuantized(c)
		if err != nil {
			return false
		}
		got, err := Decode(enc)
		if err != nil || got.Len() != c.Len() {
			return false
		}
		for i := 0; i < c.Len(); i++ {
			if !got.At(i).Pos().AlmostEqual(c.At(i).Pos(), QuantStep/2+1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestQuantizedSmallerThanRaw(t *testing.T) {
	c := randomCloud(10000, 52)
	raw := EncodeRaw(c)
	q, err := EncodeQuantized(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(q) >= len(raw) {
		t.Errorf("quantized %d bytes >= raw %d bytes", len(q), len(raw))
	}
	// The paper's §II-C claim: ~7/16 of the raw size — under 45%.
	if float64(len(q))/float64(len(raw)) > 0.45 {
		t.Errorf("compression ratio %f, want < 0.45", float64(len(q))/float64(len(raw)))
	}
}

func TestPaper200KBClaim(t *testing.T) {
	// §II-C: "point clouds can be compressed into 200 KB per scan."
	// A VLP-16 scan is ≈ 30k points; quantized that is ≈ 210 KB.
	c := randomCloud(30000, 53)
	q, err := EncodeQuantized(c)
	if err != nil {
		t.Fatal(err)
	}
	kb := float64(len(q)) / 1024
	if kb > 250 {
		t.Errorf("30k-point scan encodes to %.0f KB, want ≈ 200 KB", kb)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(nil); !errors.Is(err, ErrTruncated) {
		t.Errorf("nil: err = %v, want ErrTruncated", err)
	}
	if _, err := Decode([]byte("XXXX")); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic: err = %v, want ErrBadMagic", err)
	}
	// Truncated body: claim 100 points but provide none.
	c := randomCloud(100, 54)
	enc := EncodeRaw(c)
	if _, err := Decode(enc[:20]); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated raw: err = %v, want ErrTruncated", err)
	}
	q, _ := EncodeQuantized(c)
	if _, err := Decode(q[:30]); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated quantized: err = %v, want ErrTruncated", err)
	}
}

// TestDecodeRejectsNonFinite checks that a payload carrying a NaN or
// ±Inf raw value or quantization origin is an in-band error with an
// empty destination: such a frame used to decode, be cached and served
// by the hub, and panic the receiver's ground estimate.
func TestDecodeRejectsNonFinite(t *testing.T) {
	c := FromPoints([]Point{{X: 1, Y: 2, Z: -1.5, Reflectance: 0.5}, {X: -3, Y: 4, Z: 0.25, Reflectance: 1}})
	raw := func(mut func(p *Point)) []byte {
		bad := c.Clone()
		mut(&bad.pts[1])
		return EncodeRaw(bad)
	}
	q := mustEncodeQuantized(t, c)
	var enc DeltaEncoder
	key, _, err := enc.Encode(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	keyInf := bytes.Clone(key)
	binary.LittleEndian.PutUint64(keyInf[36:], math.Float64bits(math.Inf(-1)))
	tests := []struct {
		name string
		data []byte
	}{
		{"CPC1 NaN z", raw(func(p *Point) { p.Z = math.NaN() })},
		{"CPC1 +Inf x", raw(func(p *Point) { p.X = math.Inf(1) })},
		{"CPC1 -Inf y", raw(func(p *Point) { p.Y = math.Inf(-1) })},
		{"CPC1 NaN reflectance", raw(func(p *Point) { p.Reflectance = math.NaN() })},
		{"CPC1 overflows float32", raw(func(p *Point) { p.X = 1e39 })},
		{"CPQ1 NaN origin", withOriginAxis(q, 2, math.NaN())},
		{"CPQ1 +Inf origin", withOriginAxis(q, 0, math.Inf(1))},
		{"CPD1 keyframe -Inf origin", keyInf},
	}
	for _, tt := range tests {
		dst := FromPoints(c.pts)
		if err := DecodeInto(tt.data, dst); !errors.Is(err, ErrNonFinite) {
			t.Errorf("%s: err = %v, want ErrNonFinite", tt.name, err)
		}
		if dst.Len() != 0 {
			t.Errorf("%s: destination keeps %d points after the error", tt.name, dst.Len())
		}
	}
	var dec DeltaDecoder
	if _, err := dec.Decode(keyInf); !errors.Is(err, ErrNonFinite) {
		t.Errorf("DeltaDecoder: err = %v, want ErrNonFinite", err)
	}
	if _, ok := dec.KeyframeSeq(); ok {
		t.Error("DeltaDecoder kept a keyframe with a non-finite origin")
	}
}

func TestEncodeQuantizedTooFar(t *testing.T) {
	c := FromPoints([]Point{{X: 0}, {X: 5000}})
	if _, err := EncodeQuantized(c); !errors.Is(err, ErrTooLarge) {
		t.Errorf("err = %v, want ErrTooLarge", err)
	}
}

func TestDecodeRejectsTrailingBytes(t *testing.T) {
	c := randomCloud(10, 60)
	for name, enc := range map[string][]byte{
		"raw":       EncodeRaw(c),
		"quantized": mustEncodeQuantized(t, c),
	} {
		long := append(append([]byte{}, enc...), 0xAB)
		if _, err := Decode(long); !errors.Is(err, ErrTrailing) {
			t.Errorf("%s: err = %v, want ErrTrailing", name, err)
		}
	}
}

func TestDecodeHugeCountNoOverflow(t *testing.T) {
	// An adversarial count whose byte size wraps 32-bit int arithmetic:
	// 0xFFFFFFFF × 16 ≡ −16 in int32, which would pass a naive
	// len(data) < header+n*size check and then panic in make. The decoder
	// must size-check in 64-bit and report truncation.
	for _, magic := range []string{"CPC1", "CPQ1"} {
		data := append([]byte(magic), 0xFF, 0xFF, 0xFF, 0xFF)
		data = append(data, make([]byte, 64)...)
		if _, err := Decode(data); !errors.Is(err, ErrTruncated) {
			t.Errorf("%s: err = %v, want ErrTruncated", magic, err)
		}
	}
}

func TestEncodeQuantizedNaNCoordinate(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		// NaN/Inf in a non-origin point must be rejected, not silently
		// passed through an undefined float→int16 conversion.
		c := FromPoints([]Point{{X: 1}, {X: bad}})
		if _, err := EncodeQuantized(c); !errors.Is(err, ErrTooLarge) {
			t.Errorf("coord %v: err = %v, want ErrTooLarge", bad, err)
		}
		// And in the origin point itself.
		c = FromPoints([]Point{{Y: bad}})
		if _, err := EncodeQuantized(c); !errors.Is(err, ErrTooLarge) {
			t.Errorf("origin coord %v: err = %v, want ErrTooLarge", bad, err)
		}
	}
}

func TestEncodeQuantizedReflectanceClamped(t *testing.T) {
	cases := []struct {
		in   float64
		want float64 // decoded value
	}{
		{math.NaN(), 0},
		{math.Inf(1), 1},
		{math.Inf(-1), 0},
		{-3, 0},
		{7, 1},
	}
	for _, tc := range cases {
		c := FromPoints([]Point{{X: 1, Reflectance: tc.in}})
		got, err := Decode(mustEncodeQuantized(t, c))
		if err != nil {
			t.Fatalf("reflectance %v: %v", tc.in, err)
		}
		if got.At(0).Reflectance != tc.want {
			t.Errorf("reflectance %v decoded to %v, want %v", tc.in, got.At(0).Reflectance, tc.want)
		}
	}
}

func TestQuantizedFullInt16Range(t *testing.T) {
	// Both int16 extremes are usable cells: ±655.36 m from the origin.
	c := FromPoints([]Point{
		{X: 0, Y: 0, Z: 0},
		{X: -32768 * QuantStep, Y: 32767 * QuantStep, Z: -32768 * QuantStep},
	})
	got, err := Decode(mustEncodeQuantized(t, c))
	if err != nil {
		t.Fatal(err)
	}
	if p := got.At(1); p.X != -32768*QuantStep || p.Y != 32767*QuantStep {
		t.Errorf("extreme cells decoded to %+v", p)
	}
	// One step beyond either extreme is out of range.
	over := FromPoints([]Point{{X: 0}, {X: -32769 * QuantStep}})
	if _, err := EncodeQuantized(over); !errors.Is(err, ErrTooLarge) {
		t.Errorf("below-range err = %v, want ErrTooLarge", err)
	}
}

func TestEncodeQuantizedIdempotent(t *testing.T) {
	// Encoding a decoded cloud must reproduce the exact bytes — the
	// property the delta codec and the hub's canonical re-encode rest on.
	for seed := int64(0); seed < 20; seed++ {
		c := randomCloud(200, 70+seed)
		enc := mustEncodeQuantized(t, c)
		dec, err := Decode(enc)
		if err != nil {
			t.Fatal(err)
		}
		enc2, err := EncodeQuantized(dec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("seed %d: re-encoding a decoded cloud changed the bytes", seed)
		}
	}
}

func TestDecodeIntoReusesCapacity(t *testing.T) {
	big := randomCloud(1000, 61)
	small := randomCloud(10, 62)
	dst := &Cloud{}
	if err := DecodeInto(mustEncodeQuantized(t, big), dst); err != nil {
		t.Fatal(err)
	}
	if dst.Len() != 1000 {
		t.Fatalf("len %d", dst.Len())
	}
	// A smaller decode into the same cloud must not allocate.
	enc := mustEncodeQuantized(t, small)
	allocs := testing.AllocsPerRun(50, func() {
		if err := DecodeInto(enc, dst); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("DecodeInto into a warm cloud allocates %.0f times per run, want 0", allocs)
	}
	if dst.Len() != 10 {
		t.Fatalf("len %d after reuse", dst.Len())
	}
	if err := DecodeInto(enc, nil); err == nil {
		t.Error("nil destination must error")
	}
}

func mustEncodeQuantized(t *testing.T, c *Cloud) []byte {
	t.Helper()
	enc, err := EncodeQuantized(c)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

func TestEncodedSizes(t *testing.T) {
	c := randomCloud(123, 55)
	if got := len(EncodeRaw(c)); got != EncodedSizeRaw(123) {
		t.Errorf("raw size = %d, want %d", got, EncodedSizeRaw(123))
	}
	q, _ := EncodeQuantized(c)
	if len(q) != EncodedSizeQuantized(123) {
		t.Errorf("quantized size = %d, want %d", len(q), EncodedSizeQuantized(123))
	}
}

func TestEmptyCloudRoundTrip(t *testing.T) {
	c := &Cloud{}
	got, err := Decode(EncodeRaw(c))
	if err != nil || got.Len() != 0 {
		t.Errorf("empty raw round trip: %v, len %d", err, got.Len())
	}
	q, err := EncodeQuantized(c)
	if err != nil {
		t.Fatal(err)
	}
	got, err = Decode(q)
	if err != nil || got.Len() != 0 {
		t.Errorf("empty quantized round trip: %v", err)
	}
}

// withOriginAxis returns a copy of a CPQ1 encoding with one origin
// coordinate (0 = x, 1 = y, 2 = z) overwritten.
func withOriginAxis(enc []byte, axis int, v float64) []byte {
	out := bytes.Clone(enc)
	binary.LittleEndian.PutUint64(out[8+8*axis:], math.Float64bits(v))
	return out
}

func TestIsCanonicalQuantized(t *testing.T) {
	c := FromPoints([]Point{{X: 1.25, Y: -3.5, Z: 0.75, Reflectance: 0.5}, {X: -40.02, Y: 17.4, Z: 2.25, Reflectance: 1}})
	enc := mustEncodeQuantized(t, c)
	empty := mustEncodeQuantized(t, &Cloud{})
	firstCell := bytes.Clone(enc)
	firstCell[quantHeaderSize] = 1 // first record one step off the origin
	nearZero := mustEncodeQuantized(t, FromPoints([]Point{{X: 3, Y: -0.001, Z: 0}}))
	var delta DeltaEncoder
	keyframe, _, err := delta.Encode(c, 1)
	if err != nil {
		t.Fatal(err)
	}

	tests := []struct {
		name string
		data []byte
		want bool
	}{
		{"EncodeQuantized output", enc, true},
		{"empty cloud", empty, true},
		{"empty cloud with a lattice origin", withOriginAxis(empty, 0, 0.02), false},
		{"off-lattice origin", withOriginAxis(enc, 0, 1.013), false},
		{"nonzero first cell", firstCell, false},
		{"positive-zero origin", nearZero, true},
		{"negative-zero origin", withOriginAxis(nearZero, 1, math.Copysign(0, -1)), false},
		{"NaN origin", withOriginAxis(enc, 2, math.NaN()), false},
		{"origin beyond the lattice window", withOriginAxis(enc, 0, (maxOriginCell+1)*QuantStep), false},
		{"truncated", enc[:len(enc)-1], false},
		{"trailing byte", append(bytes.Clone(enc), 0), false},
		{"CPC1", EncodeRaw(c), false},
		{"CPD1 keyframe", keyframe, false},
		{"nil", nil, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := IsCanonicalQuantized(tc.data); got != tc.want {
				t.Fatalf("IsCanonicalQuantized = %v, want %v", got, tc.want)
			}
			// For every decodable CPQ1 frame the check is exact: it passes
			// iff re-encoding the decoding reproduces the bytes.
			dec, err := Decode(tc.data)
			if err != nil || !bytes.HasPrefix(tc.data, magicQuantized[:]) {
				return
			}
			re, err := EncodeQuantized(dec)
			if same := err == nil && bytes.Equal(re, tc.data); same != tc.want {
				t.Fatalf("EncodeQuantized(Decode(p)) == p is %v, check says %v", same, tc.want)
			}
		})
	}
}

package pointcloud

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// noisyStream synthesizes a LiDAR-like frame sequence: a persistent scene
// re-observed each frame with fresh ±range-noise at the codec's own
// resolution scale, a uniform per-frame ego-motion drift, occasional
// dropouts and new returns — the workload the delta codec is built for.
func noisyStream(frames, points int, seed int64) []*Cloud {
	rng := rand.New(rand.NewSource(seed))
	base := make([]Point, points)
	for i := range base {
		base[i] = Point{
			X:           rng.Float64()*120 - 60,
			Y:           rng.Float64()*120 - 60,
			Z:           rng.Float64()*4 - 1,
			Reflectance: rng.Float64(),
		}
	}
	out := make([]*Cloud, frames)
	for f := range out {
		drift := float64(f) * 0.31 // uniform ego-motion, absorbed by the bias
		c := New(points)
		for i, p := range base {
			if rng.Float64() < 0.02 { // dropout
				continue
			}
			c.AppendXYZR(
				p.X+drift+rng.NormFloat64()*0.02,
				p.Y+rng.NormFloat64()*0.02,
				p.Z+rng.NormFloat64()*0.01,
				math.Min(1, math.Max(0, p.Reflectance+rng.NormFloat64()*0.004)),
			)
			if i%97 == 13 && rng.Float64() < 0.3 { // sporadic new return
				c.AppendXYZR(p.X+drift+1.5, p.Y-0.8, p.Z, 0.5)
			}
		}
		out[f] = c
	}
	return out
}

// requireBitIdentical asserts got is bit-for-bit the cloud the v2 path
// would produce for frame: Decode(EncodeQuantized(frame)).
func requireBitIdentical(t *testing.T, frame, got *Cloud) {
	t.Helper()
	enc, err := EncodeQuantized(frame)
	if err != nil {
		t.Fatalf("EncodeQuantized: %v", err)
	}
	want, err := Decode(enc)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Len() != want.Len() {
		t.Fatalf("len = %d, want %d", got.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		if got.At(i) != want.At(i) {
			t.Fatalf("point %d: %+v, want %+v (must be bit-identical)", i, got.At(i), want.At(i))
		}
	}
}

func TestDeltaStreamBitIdentical(t *testing.T) {
	frames := noisyStream(25, 800, 42)
	var enc DeltaEncoder
	var dec DeltaDecoder
	keyframes := 0
	for i, frame := range frames {
		data, key, err := enc.Encode(frame, uint64(i+1))
		if err != nil {
			t.Fatalf("frame %d: Encode: %v", i, err)
		}
		if key {
			keyframes++
		}
		got, err := decodeDelta(&dec, data)
		if err != nil {
			t.Fatalf("frame %d: Decode: %v", i, err)
		}
		requireBitIdentical(t, frame, got)

		// The hub's canonical re-encode must reproduce the publisher's
		// full encoding byte-for-byte.
		canonical, err := EncodeQuantized(got)
		if err != nil {
			t.Fatalf("frame %d: re-encode: %v", i, err)
		}
		full, _ := EncodeQuantized(frame)
		if !bytes.Equal(canonical, full) {
			t.Fatalf("frame %d: canonical re-encode diverges from full encoding", i)
		}
	}
	if keyframes >= len(frames) {
		t.Fatalf("every frame became a keyframe: the stream never delta-coded")
	}
}

func TestDeltaStreamCompresses(t *testing.T) {
	frames := noisyStream(20, 1000, 7)
	var enc DeltaEncoder
	wire, full := 0, 0
	for i, frame := range frames {
		data, _, err := enc.Encode(frame, uint64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		wire += len(data)
		full += EncodedSizeQuantized(frame.Len())
	}
	ratio := float64(wire) / float64(full)
	t.Logf("delta stream: %d B vs %d B full (%.1f%%)", wire, full, 100*ratio)
	// The acceptance bar: ≥ 40% steady-state reduction.
	if ratio > 0.60 {
		t.Errorf("delta stream only reached %.1f%% of full size, want ≤ 60%%", 100*ratio)
	}
}

func TestDeltaKeyframeInterval(t *testing.T) {
	frames := noisyStream(10, 300, 3)
	enc := DeltaEncoder{Interval: 4}
	var kinds []bool
	for i, frame := range frames {
		_, key, err := enc.Encode(frame, uint64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		kinds = append(kinds, key)
	}
	want := []bool{true, false, false, false, true, false, false, false, true, false}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("keyframe pattern %v, want %v", kinds, want)
		}
	}
}

func TestDeltaIntervalOneAllKeyframes(t *testing.T) {
	frames := noisyStream(5, 100, 9)
	enc := DeltaEncoder{Interval: 1}
	for i, frame := range frames {
		_, key, err := enc.Encode(frame, uint64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		if !key {
			t.Fatalf("frame %d: interval 1 must emit only keyframes", i)
		}
	}
}

func TestDeltaForceKeyframe(t *testing.T) {
	frames := noisyStream(4, 200, 11)
	var enc DeltaEncoder
	var dec DeltaDecoder
	for i := 0; i < 2; i++ {
		data, _, err := enc.Encode(frames[i], uint64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		if err := dec.DecodeInto(data, &Cloud{}); err != nil {
			t.Fatal(err)
		}
	}
	enc.ForceKeyframe()
	data, key, err := enc.Encode(frames[2], 3)
	if err != nil {
		t.Fatal(err)
	}
	if !key {
		t.Fatal("ForceKeyframe did not force a keyframe")
	}
	got, err := decodeDelta(&dec, data)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, frames[2], got)
}

func TestDeltaFallbackOnSceneChange(t *testing.T) {
	var enc DeltaEncoder
	if _, key, err := enc.Encode(randomCloud(500, 1), 1); err != nil || !key {
		t.Fatalf("first frame: key=%v err=%v", key, err)
	}
	// A completely unrelated scene: a delta cannot beat the keyframe, so
	// the encoder must fall back even though the interval allows a delta.
	_, key, err := enc.Encode(randomCloud(500, 999), 2)
	if err != nil {
		t.Fatal(err)
	}
	if !key {
		t.Fatal("scene change did not fall back to a keyframe")
	}
}

func TestDeltaBiasAbsorbsEgoMotion(t *testing.T) {
	base := randomCloud(600, 21)
	shifted := New(base.Len())
	for i := 0; i < base.Len(); i++ {
		p := base.At(i)
		// A uniform lattice-aligned translation: pure ego-motion.
		shifted.AppendXYZR(p.X+12.34, p.Y-3.5, p.Z+0.1, p.Reflectance)
	}
	var enc DeltaEncoder
	kf, _, err := enc.Encode(base, 1)
	if err != nil {
		t.Fatal(err)
	}
	data, key, err := enc.Encode(shifted, 2)
	if err != nil {
		t.Fatal(err)
	}
	if key {
		t.Fatal("uniform translation forced a keyframe; the bias should absorb it")
	}
	// Near-pure class-0: header + mask + class stream, no per-point payload
	// beyond a few rounding residuals.
	budget := deltaHeaderSize + (base.Len()+7)/8 + (base.Len()+3)/4 + base.Len()/4
	if len(data) > budget {
		t.Errorf("ego-motion delta is %d B, want ≤ %d B (mostly class 0)", len(data), budget)
	}
	var dec DeltaDecoder
	if err := dec.DecodeInto(kf, &Cloud{}); err != nil {
		t.Fatal(err)
	}
	got, err := decodeDelta(&dec, data)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, shifted, got)
}

func TestDeltaDecoderErrors(t *testing.T) {
	frames := noisyStream(3, 200, 5)
	var enc DeltaEncoder
	kf, _, _ := enc.Encode(frames[0], 1)
	delta, key, err := enc.Encode(frames[1], 2)
	if err != nil || key {
		t.Fatalf("setup: key=%v err=%v", key, err)
	}

	t.Run("needs keyframe", func(t *testing.T) {
		var dec DeltaDecoder
		if err := dec.DecodeInto(delta, &Cloud{}); !errors.Is(err, ErrNeedsKeyframe) {
			t.Errorf("err = %v, want ErrNeedsKeyframe", err)
		}
	})
	t.Run("stale keyframe", func(t *testing.T) {
		var dec DeltaDecoder
		// Prime with a *different* keyframe than the delta is keyed to.
		other, _, _ := (&DeltaEncoder{}).Encode(frames[2], 9)
		if err := dec.DecodeInto(other, &Cloud{}); err != nil {
			t.Fatal(err)
		}
		if err := dec.DecodeInto(delta, &Cloud{}); !errors.Is(err, ErrStaleKeyframe) {
			t.Errorf("err = %v, want ErrStaleKeyframe", err)
		}
	})
	t.Run("stale state survives and recovers", func(t *testing.T) {
		var dec DeltaDecoder
		other, _, _ := (&DeltaEncoder{}).Encode(frames[2], 9)
		if err := dec.DecodeInto(other, &Cloud{}); err != nil {
			t.Fatal(err)
		}
		_ = dec.DecodeInto(delta, &Cloud{}) // stale, rejected
		// The rejection must not disturb state: the retained keyframe
		// still decodes deltas keyed to it.
		if err := dec.DecodeInto(kf, &Cloud{}); err != nil {
			t.Fatal(err)
		}
		got, err := decodeDelta(&dec, delta)
		if err != nil {
			t.Fatalf("delta after re-key: %v", err)
		}
		requireBitIdentical(t, frames[1], got)
	})
	t.Run("truncated", func(t *testing.T) {
		var dec DeltaDecoder
		if err := dec.DecodeInto(kf, &Cloud{}); err != nil {
			t.Fatal(err)
		}
		for _, cut := range []int{3, deltaCommonSize - 1, deltaCommonSize + 5, len(delta) - 1} {
			if cut >= len(delta) {
				continue
			}
			if err := dec.DecodeInto(delta[:cut], &Cloud{}); !errors.Is(err, ErrTruncated) {
				t.Errorf("cut %d: err = %v, want ErrTruncated", cut, err)
			}
		}
	})
	t.Run("trailing", func(t *testing.T) {
		var dec DeltaDecoder
		if err := dec.DecodeInto(kf, &Cloud{}); err != nil {
			t.Fatal(err)
		}
		long := append(append([]byte{}, delta...), 0)
		if err := dec.DecodeInto(long, &Cloud{}); !errors.Is(err, ErrTrailing) {
			t.Errorf("err = %v, want ErrTrailing", err)
		}
	})
	t.Run("reserved bytes", func(t *testing.T) {
		var dec DeltaDecoder
		bad := append([]byte{}, kf...)
		bad[5] = 1
		if err := dec.DecodeInto(bad, &Cloud{}); !errors.Is(err, ErrCorruptDelta) {
			t.Errorf("err = %v, want ErrCorruptDelta", err)
		}
	})
	t.Run("unknown kind", func(t *testing.T) {
		var dec DeltaDecoder
		bad := append([]byte{}, kf...)
		bad[4] = 7
		if err := dec.DecodeInto(bad, &Cloud{}); !errors.Is(err, ErrCorruptDelta) {
			t.Errorf("err = %v, want ErrCorruptDelta", err)
		}
	})
	t.Run("mask padding", func(t *testing.T) {
		var dec DeltaDecoder
		if err := dec.DecodeInto(kf, &Cloud{}); err != nil {
			t.Fatal(err)
		}
		nk := frames[0].Len()
		if nk%8 == 0 {
			t.Skip("keyframe count is a multiple of 8; no padding bits")
		}
		bad := append([]byte{}, delta...)
		maskLen := (nk + 7) / 8
		bad[deltaHeaderSize+maskLen-1] |= 1 << 7
		err := dec.DecodeInto(bad, &Cloud{})
		if !errors.Is(err, ErrCorruptDelta) {
			t.Errorf("err = %v, want ErrCorruptDelta", err)
		}
	})
	t.Run("huge count", func(t *testing.T) {
		var dec DeltaDecoder
		bad := append([]byte{}, kf...)
		binary.LittleEndian.PutUint32(bad[16:], math.MaxUint32)
		if err := dec.DecodeInto(bad, &Cloud{}); !errors.Is(err, ErrTruncated) {
			t.Errorf("err = %v, want ErrTruncated", err)
		}
	})
}

func TestDeltaStandaloneDecode(t *testing.T) {
	frames := noisyStream(2, 150, 6)
	var enc DeltaEncoder
	kf, _, _ := enc.Encode(frames[0], 1)
	delta, _, _ := enc.Encode(frames[1], 2)

	// Keyframes are self-contained: plain Decode handles them.
	got, err := Decode(kf)
	if err != nil {
		t.Fatalf("Decode(keyframe): %v", err)
	}
	requireBitIdentical(t, frames[0], got)
	if !IsDeltaFrame(kf) || !IsDeltaFrame(delta) {
		t.Error("IsDeltaFrame must recognise both kinds")
	}
	if IsDeltaFrame(nil) || IsDeltaFrame([]byte("CPQ1xxxx")) {
		t.Error("IsDeltaFrame false positive")
	}

	// Bare deltas cannot be decoded without keyframe state.
	if _, err := Decode(delta); !errors.Is(err, ErrNeedsKeyframe) {
		t.Errorf("Decode(delta): err = %v, want ErrNeedsKeyframe", err)
	}
}

func TestEncodedSizeDeltaKeyframe(t *testing.T) {
	c := randomCloud(123, 8)
	var enc DeltaEncoder
	data, key, err := enc.Encode(c, 1)
	if err != nil || !key {
		t.Fatalf("key=%v err=%v", key, err)
	}
	if len(data) != EncodedSizeDeltaKeyframe(123) {
		t.Errorf("keyframe size %d, want %d", len(data), EncodedSizeDeltaKeyframe(123))
	}
}

func TestDeltaEmptyFrames(t *testing.T) {
	var enc DeltaEncoder
	var dec DeltaDecoder
	empty := &Cloud{}
	for seq := uint64(1); seq <= 3; seq++ {
		data, _, err := enc.Encode(empty, seq)
		if err != nil {
			t.Fatalf("seq %d: %v", seq, err)
		}
		got, err := decodeDelta(&dec, data)
		if err != nil {
			t.Fatalf("seq %d: %v", seq, err)
		}
		if got.Len() != 0 {
			t.Fatalf("seq %d: len %d", seq, got.Len())
		}
	}
	// Empty → full → empty transitions.
	full := randomCloud(50, 13)
	data, _, err := enc.Encode(full, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeDelta(&dec, data)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, full, got)
	data, _, err = enc.Encode(empty, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got, err = decodeDelta(&dec, data); err != nil || got.Len() != 0 {
		t.Fatalf("back to empty: len=%v err=%v", got.Len(), err)
	}
}

func TestDeltaDecodeIntoReusesCapacity(t *testing.T) {
	frames := noisyStream(6, 400, 17)
	var enc DeltaEncoder
	var dec DeltaDecoder
	dst := &Cloud{}
	for i, frame := range frames {
		data, _, err := enc.Encode(frame, uint64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		if err := dec.DecodeInto(data, dst); err != nil {
			t.Fatal(err)
		}
		requireBitIdentical(t, frame, dst)
	}
}

// decodeDelta decodes one CPD1 frame into a fresh cloud.
func decodeDelta(d *DeltaDecoder, data []byte) (*Cloud, error) {
	out := &Cloud{}
	return out, d.DecodeInto(data, out)
}

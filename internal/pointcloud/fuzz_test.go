package pointcloud

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// FuzzEncodeDecodeQuantized fuzzes the quantized wire codec from both
// ends. The fuzz input is treated twice:
//
//  1. as an adversarial wire payload handed straight to Decode, which
//     must never panic and must return structurally valid clouds of
//     finite points, and
//  2. as raw material for building a cloud, which must round-trip
//     through encode→decode within the codec's quantization tolerance.
//
// Both legs also pin IsCanonicalQuantized: every EncodeQuantized output
// passes it, and any payload that passes it is reproduced byte for byte
// by re-encoding its decoding.
func FuzzEncodeDecodeQuantized(f *testing.F) {
	// Wire-shaped seeds: valid encodings, truncations and bad magic.
	seedCloud := New(4)
	seedCloud.AppendXYZR(1.25, -3.5, 0.75, 0.5)
	seedCloud.AppendXYZR(-40.02, 17.4, 2.25, 1)
	seedCloud.AppendXYZR(0, 0, 0, 0)
	if enc, err := EncodeQuantized(seedCloud); err == nil {
		f.Add(enc)
		f.Add(enc[:len(enc)-3])                             // truncated payload
		f.Add(enc[:7])                                      // truncated header
		f.Add(withOriginAxis(enc, 0, 1.013))                // off-lattice origin
		f.Add(withOriginAxis(enc, 1, math.Copysign(0, -1))) // −0.0 origin
		firstCell := bytes.Clone(enc)
		firstCell[quantHeaderSize+2] = 3 // nonzero first cell
		f.Add(firstCell)
	}
	if enc, err := EncodeQuantized(&Cloud{}); err == nil {
		f.Add(enc) // empty cloud
	}
	f.Add(EncodeRaw(seedCloud))
	nan := seedCloud.Clone()
	nan.pts[1].Z = math.NaN()
	f.Add(EncodeRaw(nan)) // non-finite raw coordinate
	f.Add([]byte("CPQ1"))
	f.Add([]byte{'C', 'P', 'Q', '1', 0xff, 0xff, 0xff, 0xff}) // huge count
	f.Add([]byte("not a cloud at all"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Leg 1: adversarial payload. Any outcome is fine except a panic,
		// a decoded cloud that lies about its length, or a non-finite
		// point (a NaN or ±Inf must be an in-band error).
		if c, err := Decode(data); err == nil {
			if c == nil {
				t.Fatal("Decode returned nil cloud with nil error")
			}
			for i := 0; i < c.Len(); i++ {
				p := c.At(i)
				for _, v := range [4]float64{p.X, p.Y, p.Z, p.Reflectance} {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatalf("decoded point %d is not finite: %+v", i, p)
					}
				}
			}
		}
		if IsCanonicalQuantized(data) {
			c, err := Decode(data)
			if err != nil {
				t.Fatalf("canonical payload does not decode: %v", err)
			}
			re, err := EncodeQuantized(c)
			if err != nil {
				t.Fatalf("re-encoding a canonical payload: %v", err)
			}
			if !bytes.Equal(re, data) {
				t.Fatal("canonical payload changed on decode→encode")
			}
		}

		// Leg 2: interpret the bytes as float64 coordinate material and
		// round-trip a cloud built from them.
		cloud := cloudFromFuzz(data)
		enc, err := EncodeQuantized(cloud)
		if err != nil {
			// Only the documented failure is allowed: a point beyond the
			// codec's representable range from the centroid.
			if cloud.Len() == 0 {
				t.Fatalf("empty cloud failed to encode: %v", err)
			}
			return
		}
		if !IsCanonicalQuantized(enc) {
			t.Fatal("EncodeQuantized output fails IsCanonicalQuantized")
		}
		dec, err := Decode(enc)
		if err != nil {
			t.Fatalf("decoding our own encoding: %v", err)
		}
		if dec.Len() != cloud.Len() {
			t.Fatalf("round-trip length %d, want %d", dec.Len(), cloud.Len())
		}
		// Leg 3: idempotency. Re-encoding the decoded cloud must reproduce
		// the exact bytes — encode→decode→encode is byte-stable.
		enc2, err := EncodeQuantized(dec)
		if err != nil {
			t.Fatalf("re-encoding a decoded cloud: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatal("encode→decode→encode changed the bytes")
		}
		// Positions must land within half a quantization step (plus a
		// hair of float slack); reflectance within half a uint8 step.
		const posTol = QuantStep/2 + 1e-9
		const refTol = 1.0/(2*255) + 1e-9
		for i := 0; i < cloud.Len(); i++ {
			p, q := cloud.At(i), dec.At(i)
			if math.Abs(p.X-q.X) > posTol || math.Abs(p.Y-q.Y) > posTol || math.Abs(p.Z-q.Z) > posTol {
				t.Fatalf("point %d drifted beyond tolerance: %+v -> %+v", i, p, q)
			}
			want := math.Max(0, math.Min(1, p.Reflectance))
			if math.Abs(want-q.Reflectance) > refTol {
				t.Fatalf("point %d reflectance %v -> %v", i, p.Reflectance, q.Reflectance)
			}
		}
	})
}

// cloudFromFuzz deterministically builds a cloud from fuzz bytes: each
// 25-byte block yields one point (three coordinates, one reflectance).
// Coordinates are folded into the codec's representable span and NaN/Inf
// are squashed, since those are documented encoding preconditions rather
// than wire-format concerns.
func cloudFromFuzz(data []byte) *Cloud {
	fold := func(b []byte) float64 {
		v := math.Float64frombits(binary.LittleEndian.Uint64(b))
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0
		}
		// Fold into ±300 m, comfortably inside the ±655 m span.
		return math.Mod(v, 300)
	}
	c := New(len(data) / 25)
	for off := 0; off+25 <= len(data); off += 25 {
		c.AppendXYZR(
			fold(data[off:]),
			fold(data[off+8:]),
			fold(data[off+16:]),
			float64(data[off+24])/255,
		)
	}
	return c
}

// FuzzDecodeDelta fuzzes the CPD1 decode path: a decoder primed with a
// fixed keyframe is fed arbitrary bytes, which must never panic — only
// decode cleanly or fail with a codec error — and must never corrupt the
// retained keyframe state. The standalone Decode entry point gets the
// same bytes.
func FuzzDecodeDelta(f *testing.F) {
	frames := noisyStream(3, 120, 77)
	var enc DeltaEncoder
	kf, _, err := enc.Encode(frames[0], 1)
	if err != nil {
		f.Fatal(err)
	}
	delta, _, err := enc.Encode(frames[1], 2)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(kf)
	f.Add(delta)
	f.Add(delta[:len(delta)-2]) // truncated payload
	f.Add(kf[:deltaCommonSize]) // empty-body keyframe claim
	f.Add([]byte("CPD1"))
	f.Add([]byte{'C', 'P', 'D', '1', 1, 0, 0, 0}) // delta kind, short
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var dec DeltaDecoder
		if err := dec.DecodeInto(kf, &Cloud{}); err != nil {
			t.Fatalf("priming keyframe: %v", err)
		}
		dst := &Cloud{}
		if err := dec.DecodeInto(data, dst); err != nil {
			if dst.Len() != 0 {
				t.Fatal("dst not empty after decode error")
			}
			// A rejected input must leave decoder state untouched: the
			// genuine delta still decodes against the primed keyframe.
			if err := dec.DecodeInto(delta, dst); err != nil {
				t.Fatalf("genuine delta after rejected fuzz input: %v", err)
			}
		} else {
			// The input decoded — possibly a valid keyframe that replaced
			// the decoder's state, so the genuine delta may now fail, but
			// it must fail cleanly, never panic.
			_ = dec.DecodeInto(delta, dst)
		}

		// The standalone path must be equally panic-free.
		if c, err := Decode(data); err == nil && c == nil {
			t.Fatal("Decode returned nil cloud with nil error")
		}
	})
}

// TestFuzzHelperDeterministic pins the fuzz-corpus cloud builder: the
// same bytes must always produce the same cloud, so corpus entries stay
// reproducible.
func TestFuzzHelperDeterministic(t *testing.T) {
	data := bytes.Repeat([]byte{7, 130, 255, 3, 9}, 20)
	a, b := cloudFromFuzz(data), cloudFromFuzz(data)
	if a.Len() != b.Len() || a.Len() != len(data)/25 {
		t.Fatalf("lengths %d, %d", a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		if a.At(i) != b.At(i) {
			t.Fatalf("point %d differs", i)
		}
	}
}

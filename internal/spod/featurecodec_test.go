package spod

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
)

// codecFrame builds a small hand-laid feature frame: three columns in
// ascending packed order, mixed site counts, z layers spanning negative
// to positive, channel values spanning each plane's dynamic range.
func codecFrame() *FeatureFrame {
	return &FeatureFrame{
		SizeXY:  0.2,
		SizeZ:   0.25,
		GroundZ: -1.6,
		Cols:    []colKey{packXY(-3, 2), packXY(0, 0), packXY(5, -1)},
		ColOff:  []int32{0, 2, 3, 6},
		Zs:      []int32{-2, 0, 1, -1, 3, 7},
		Feats: []float64{
			1, 0.5, 0.25,
			8, 1.0, 0.9,
			2, 0.1, 0.0,
			0, 2.0, 0.5,
			4, 0.7, 0.33,
			16, 1.4, 0.66,
		},
	}
}

func TestFeatureCodecRoundTrip(t *testing.T) {
	f := codecFrame()
	enc := f.Encode()
	if len(enc) != f.EncodedSize() {
		t.Fatalf("encoded %d bytes, EncodedSize says %d", len(enc), f.EncodedSize())
	}
	if len(enc) != FeatureFrameSize(len(f.Cols), f.Sites()) {
		t.Fatalf("encoded %d bytes, closed form says %d", len(enc), FeatureFrameSize(len(f.Cols), f.Sites()))
	}
	if !IsFeaturePayload(enc) {
		t.Fatal("encoding does not carry the feature magic")
	}
	got, err := DecodeFeatureFrame(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.SizeXY != f.SizeXY || got.SizeZ != f.SizeZ || got.GroundZ != f.GroundZ {
		t.Errorf("geometry differs: got (%g, %g, %g), want (%g, %g, %g)",
			got.SizeXY, got.SizeZ, got.GroundZ, f.SizeXY, f.SizeZ, f.GroundZ)
	}
	if !equalInt32(got.ColOff, f.ColOff) || !equalInt32(got.Zs, f.Zs) {
		t.Errorf("CSR structure differs:\n got %v %v\nwant %v %v", got.ColOff, got.Zs, f.ColOff, f.Zs)
	}
	for i := range got.Cols {
		if got.Cols[i] != f.Cols[i] {
			t.Errorf("column %d key differs", i)
		}
	}
	// Channels are quantized against per-frame max/255 scales: each value
	// must round-trip within half a quantum of its channel.
	var scales [convChannels]float64
	for i := 0; i < f.Sites(); i++ {
		for c := 0; c < convChannels; c++ {
			if v := f.Feats[i*convChannels+c]; v > scales[c] {
				scales[c] = v
			}
		}
	}
	for i := range f.Feats {
		tol := scales[i%convChannels] / 255 * 0.5001
		if d := math.Abs(got.Feats[i] - f.Feats[i]); d > tol {
			t.Errorf("feat %d: got %g, want %g (tolerance %g)", i, got.Feats[i], f.Feats[i], tol)
		}
	}
}

func equalInt32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestFeatureCodecOffsetOverflow pins the clean error for the one corrupt
// shape the length check cannot catch: per-column site counts that sum
// past the declared total while the payload length still matches.
func TestFeatureCodecOffsetOverflow(t *testing.T) {
	enc := codecFrame().Encode()
	bad := bytes.Clone(enc)
	// First column record starts at the 60-byte header; its site count is
	// the fifth byte. 255 > the frame's 6 total sites.
	bad[60+4] = 255
	_, err := DecodeFeatureFrame(bad)
	if err == nil {
		t.Fatal("decode accepted a column claiming more sites than declared")
	}
	if !errors.Is(err, ErrFeaturePayload) {
		t.Errorf("error does not wrap ErrFeaturePayload: %v", err)
	}
	if !strings.Contains(err.Error(), "column offsets exceed declared site count") {
		t.Errorf("unexpected error text: %v", err)
	}
}

// TestFeatureCodecRejects sweeps the other structural corruptions.
func TestFeatureCodecRejects(t *testing.T) {
	enc := codecFrame().Encode()
	corrupt := func(mutate func([]byte)) []byte {
		b := bytes.Clone(enc)
		mutate(b)
		return b
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"truncated header", enc[:59]},
		{"truncated body", enc[:len(enc)-1]},
		{"bad magic", corrupt(func(b []byte) { b[0] = 'X' })},
		{"zero voxel size", corrupt(func(b []byte) {
			for i := 4; i < 12; i++ {
				b[i] = 0
			}
		})},
		{"columns not ascending", corrupt(func(b []byte) {
			// Swap the first two 5-byte column records.
			c0 := bytes.Clone(b[60:65])
			copy(b[60:65], b[65:70])
			copy(b[65:70], c0)
		})},
		{"z not ascending", corrupt(func(b []byte) {
			// Swap the first column's two site records (4 bytes each),
			// which start after the three column records.
			s := 60 + 3*5
			r0 := bytes.Clone(b[s : s+4])
			copy(b[s:s+4], b[s+4:s+8])
			copy(b[s+4:s+8], r0)
		})},
		{"declared counts disagree with length", corrupt(func(b []byte) { b[56]++ })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeFeatureFrame(tc.data)
			if err == nil {
				t.Fatal("decode accepted corrupt payload")
			}
			if !errors.Is(err, ErrFeaturePayload) {
				t.Errorf("error does not wrap ErrFeaturePayload: %v", err)
			}
		})
	}
}

// FuzzDecodeFeatureFrame drives the decoder with arbitrary bytes: it must
// never panic, every rejection must wrap ErrFeaturePayload, and anything
// it accepts must satisfy the CSR invariants the fusion path relies on
// and survive a re-encode.
func FuzzDecodeFeatureFrame(f *testing.F) {
	valid := codecFrame().Encode()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:60])
	f.Add([]byte{})
	f.Add([]byte("CPF3"))
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	overflow := bytes.Clone(valid)
	overflow[60+4] = 255 // first column claims more sites than declared
	f.Add(overflow)
	huge := bytes.Clone(valid)
	huge[52], huge[53], huge[54], huge[55] = 0xff, 0xff, 0xff, 0xff
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		frame, err := DecodeFeatureFrame(data)
		if err != nil {
			if !errors.Is(err, ErrFeaturePayload) {
				t.Fatalf("rejection does not wrap ErrFeaturePayload: %v", err)
			}
			return
		}
		if len(frame.ColOff) != len(frame.Cols)+1 || frame.ColOff[0] != 0 {
			t.Fatalf("bad ColOff shape: %d columns, %d offsets", len(frame.Cols), len(frame.ColOff))
		}
		if int(frame.ColOff[len(frame.Cols)]) != frame.Sites() {
			t.Fatalf("ColOff ends at %d, frame has %d sites", frame.ColOff[len(frame.Cols)], frame.Sites())
		}
		if len(frame.Feats) != frame.Sites()*convChannels {
			t.Fatalf("%d feats for %d sites", len(frame.Feats), frame.Sites())
		}
		for c := 0; c < len(frame.Cols); c++ {
			if c > 0 && frame.Cols[c] <= frame.Cols[c-1] {
				t.Fatalf("columns not ascending at %d", c)
			}
			if frame.ColOff[c] >= frame.ColOff[c+1] {
				t.Fatalf("empty or descending column %d", c)
			}
			for s := frame.ColOff[c] + 1; s < frame.ColOff[c+1]; s++ {
				if frame.Zs[s] <= frame.Zs[s-1] {
					t.Fatalf("z not ascending in column %d", c)
				}
			}
		}
		// A decoded frame re-encodes losslessly in structure (channel
		// scales may requantize) — unless adversarial header scales pushed
		// feature values to infinity, which a re-encode cannot represent.
		for _, v := range frame.Feats {
			if math.IsInf(v, 0) {
				return
			}
		}
		again, err := DecodeFeatureFrame(frame.Encode())
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if len(again.Cols) != len(frame.Cols) || again.Sites() != frame.Sites() {
			t.Fatalf("re-encode changed shape: %d/%d -> %d/%d",
				len(frame.Cols), frame.Sites(), len(again.Cols), again.Sites())
		}
		if !equalInt32(again.ColOff, frame.ColOff) || !equalInt32(again.Zs, frame.Zs) {
			t.Fatal("re-encode changed CSR structure")
		}
	})
}

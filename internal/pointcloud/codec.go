package pointcloud

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"cooper/internal/geom"
)

// Wire formats. The paper (§II-C, §IV-G) observes that point clouds can be
// shrunk to roughly 200 KB per scan by keeping only positional coordinates
// and the reflection value; the quantized codec below realises that:
// 7 bytes per point (3×int16 position at 2 cm resolution + 1 byte
// reflectance) versus 16 bytes for raw float32 quads. The temporal delta
// codec (CPD1, codecv3.go) layers on top of the quantized lattice and
// shares its record layout.

// Codec identifiers (first four bytes of an encoded cloud).
var (
	magicRaw       = [4]byte{'C', 'P', 'C', '1'} // float32 x,y,z,reflectance
	magicQuantized = [4]byte{'C', 'P', 'Q', '1'} // int16 x,y,z (scaled) + uint8 reflectance
)

// Encoding errors.
var (
	ErrBadMagic  = errors.New("pointcloud: unrecognised wire format magic")
	ErrTruncated = errors.New("pointcloud: truncated encoding")
	ErrTrailing  = errors.New("pointcloud: trailing bytes past declared point count")
	ErrTooLarge  = errors.New("pointcloud: cloud exceeds encodable size")
	ErrNonFinite = errors.New("pointcloud: non-finite coordinate")
)

// QuantStep is the spatial resolution of the quantized codec: 2 cm, well
// under LiDAR range noise, so quantization does not disturb detection.
const QuantStep = 0.02

// Quantized cells span the full int16 range: the usable window is
// [−32768, 32767] steps (about ±655 m) around the frame origin. No cell
// value is reserved.
const (
	minQuantCell = -32768
	maxQuantCell = 32767
)

// maxOriginCell bounds the origin's absolute lattice coordinate
// (±2^40 steps ≈ ±2.2×10^10 m). Within this bound the float64 lattice
// arithmetic below is exact to ≪ half a step, which keeps re-encoding a
// decoded cloud bit-stable.
const maxOriginCell = 1 << 40

const (
	rawHeaderSize   = 4 + 4 // magic + count
	rawPointSize    = 16    // 4 × float32
	quantHeaderSize = 4 + 4 + 3*8
	quantPointSize  = 7 // 3 × int16 + uint8
)

// quantOrigin returns the quantization origin for a cloud: its first
// point's position snapped to the global QuantStep lattice (the zero
// vector for an empty cloud). Deriving the origin from the lattice rather
// than the centroid makes encoding idempotent — re-encoding a decoded
// cloud reproduces the exact same bytes — which the delta codec and the
// hub's canonical re-encode depend on. NaN/±Inf coordinates and origins
// beyond ±maxOriginCell steps yield ErrTooLarge.
func quantOrigin(c *Cloud) (geom.Vec3, error) {
	if c.Len() == 0 {
		return geom.Vec3{}, nil
	}
	p := c.pts[0]
	ox, okx := latticeOrigin(p.X)
	oy, oky := latticeOrigin(p.Y)
	oz, okz := latticeOrigin(p.Z)
	if !okx || !oky || !okz {
		return geom.Vec3{}, fmt.Errorf("origin point at (%g,%g,%g): %w", p.X, p.Y, p.Z, ErrTooLarge)
	}
	return geom.V3(ox, oy, oz), nil
}

// latticeOrigin snaps one origin coordinate to the QuantStep lattice; ok
// is false for NaN/±Inf and beyond ±maxOriginCell steps.
func latticeOrigin(v float64) (float64, bool) {
	cell := math.Round(v / QuantStep)
	if !(math.Abs(cell) <= maxOriginCell) {
		return 0, false
	}
	// +0 normalises the −0.0 that Round yields for tiny negatives: a −0.0
	// origin would decode to +0.0 coordinates and break byte-stability.
	return cell*QuantStep + 0, true
}

// quantCell quantizes one coordinate against an origin. ok is false when
// the cell leaves the int16 window — the comparison is written so NaN
// coordinates fail it too instead of sliding through an
// implementation-defined int16 conversion.
func quantCell(v, origin float64) (int16, bool) {
	d := math.Round((v - origin) / QuantStep)
	if !(d >= minQuantCell && d <= maxQuantCell) {
		return 0, false
	}
	return int16(d), true
}

// quantReflectance clamps reflectance into a byte. NaN folds to 0 and
// ±Inf saturate, so the uint8 conversion is always defined.
func quantReflectance(r float64) uint8 {
	v := math.Round(r * 255)
	if !(v > 0) { // NaN and negatives
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v)
}

// EncodeRaw serialises the cloud in the raw float32 format (16 bytes per
// point): the KITTI-style representation.
func EncodeRaw(c *Cloud) []byte {
	buf := make([]byte, rawHeaderSize+rawPointSize*c.Len())
	copy(buf, magicRaw[:])
	binary.LittleEndian.PutUint32(buf[4:], uint32(c.Len()))
	off := rawHeaderSize
	for _, p := range c.pts {
		binary.LittleEndian.PutUint32(buf[off:], math.Float32bits(float32(p.X)))
		binary.LittleEndian.PutUint32(buf[off+4:], math.Float32bits(float32(p.Y)))
		binary.LittleEndian.PutUint32(buf[off+8:], math.Float32bits(float32(p.Z)))
		binary.LittleEndian.PutUint32(buf[off+12:], math.Float32bits(float32(p.Reflectance)))
		off += rawPointSize
	}
	return buf
}

// EncodeQuantized serialises the cloud in the compact quantized format
// (7 bytes per point). Coordinates are stored as int16 multiples of
// QuantStep relative to the frame origin (see quantOrigin); reflectance
// as uint8. Points farther than ±655 m from the origin, or NaN/±Inf
// coordinates, yield ErrTooLarge. Encoding is idempotent: encoding a
// decoded cloud reproduces the input bytes.
func EncodeQuantized(c *Cloud) ([]byte, error) {
	origin, err := quantOrigin(c)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, quantHeaderSize+quantPointSize*c.Len())
	copy(buf, magicQuantized[:])
	binary.LittleEndian.PutUint32(buf[4:], uint32(c.Len()))
	binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(origin.X))
	binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(origin.Y))
	binary.LittleEndian.PutUint64(buf[24:], math.Float64bits(origin.Z))
	off := quantHeaderSize
	for i, p := range c.pts {
		var qx, qy, qz int16
		if i > 0 {
			var okx, oky, okz bool
			qx, okx = quantCell(p.X, origin.X)
			qy, oky = quantCell(p.Y, origin.Y)
			qz, okz = quantCell(p.Z, origin.Z)
			if !okx || !oky || !okz {
				return nil, fmt.Errorf("point at (%g,%g,%g): %w", p.X, p.Y, p.Z, ErrTooLarge)
			}
		}
		// The first point defines the origin, so it is the zero cell by
		// construction — rounding may not agree at exact half-step
		// boundaries, and an off-by-one first cell would shift the origin
		// on re-encode and break byte-stability.
		binary.LittleEndian.PutUint16(buf[off:], uint16(qx))
		binary.LittleEndian.PutUint16(buf[off+2:], uint16(qy))
		binary.LittleEndian.PutUint16(buf[off+4:], uint16(qz))
		buf[off+6] = quantReflectance(p.Reflectance)
		off += quantPointSize
	}
	return buf, nil
}

// IsCanonicalQuantized reports, in O(1), whether data is exactly the
// EncodeQuantized output of its own decoding, so a holder of the decoded
// cloud may reuse data instead of re-encoding. It checks the framing, that
// every origin coordinate is its own lattice snap (see quantOrigin) — the
// zero vector for an empty cloud — and that the first record is the zero
// cell. Every EncodeQuantized output passes; CPC1, CPD1 and hand-built
// CPQ1 frames with an off-lattice origin or a nonzero first cell do not.
func IsCanonicalQuantized(data []byte) bool {
	if len(data) < quantHeaderSize || [4]byte(data[:4]) != magicQuantized {
		return false
	}
	n, err := checkFrameLen(data, quantHeaderSize, quantPointSize, binary.LittleEndian.Uint32(data[4:]))
	if err != nil {
		return false
	}
	for off := 8; off < quantHeaderSize; off += 8 {
		bits := binary.LittleEndian.Uint64(data[off:])
		snapped, ok := latticeOrigin(math.Float64frombits(bits))
		if !ok || math.Float64bits(snapped) != bits || (n == 0 && bits != 0) {
			return false
		}
	}
	first := data[quantHeaderSize:]
	return n == 0 || first[0]|first[1]|first[2]|first[3]|first[4]|first[5] == 0
}

// Decode parses any wire format back into a fresh cloud. CPD1 keyframes
// are self-contained and decode too; CPD1 deltas need keyframe state and
// therefore a DeltaDecoder (bare deltas return ErrNeedsKeyframe).
func Decode(data []byte) (*Cloud, error) {
	out := &Cloud{}
	if err := DecodeInto(data, out); err != nil {
		return nil, err
	}
	return out, nil
}

// DecodeInto is the zero-copy variant of Decode: it parses directly from
// the receive buffer into dst, reusing dst's point capacity (pair with
// GetCloud/PutCloud to eliminate per-frame allocation). dst is left empty
// on error. Framing is strict: short buffers return ErrTruncated and
// bytes past the declared point count return ErrTrailing. A NaN or ±Inf
// raw value or quantization origin returns ErrNonFinite, so every decoded
// point is finite.
func DecodeInto(data []byte, dst *Cloud) error {
	if dst == nil {
		return errors.New("pointcloud: DecodeInto: nil destination")
	}
	dst.Reset()
	if len(data) < 4 {
		return ErrTruncated
	}
	switch magic := ([4]byte{data[0], data[1], data[2], data[3]}); magic {
	case magicRaw:
		return decodeRawInto(data, dst)
	case magicQuantized:
		return decodeQuantizedInto(data, dst)
	case magicDelta:
		return decodeDeltaStandalone(data, dst)
	default:
		return fmt.Errorf("%w: %q", ErrBadMagic, data[:4])
	}
}

// checkFrameLen validates a declared point count against the buffer in
// uint64 arithmetic, so adversarial counts cannot wrap the size check on
// 32-bit platforms. It returns the count as a safe int.
func checkFrameLen(data []byte, header, pointSize int, count uint32) (int, error) {
	want := uint64(header) + uint64(count)*uint64(pointSize)
	switch {
	case uint64(len(data)) < want:
		return 0, ErrTruncated
	case uint64(len(data)) > want:
		return 0, ErrTrailing
	}
	return int(count), nil
}

func decodeRawInto(data []byte, dst *Cloud) error {
	if len(data) < rawHeaderSize {
		return ErrTruncated
	}
	n, err := checkFrameLen(data, rawHeaderSize, rawPointSize, binary.LittleEndian.Uint32(data[4:]))
	if err != nil {
		return err
	}
	pts := dst.ensure(n)
	off := rawHeaderSize
	for i := 0; i < n; i++ {
		x := binary.LittleEndian.Uint32(data[off:])
		y := binary.LittleEndian.Uint32(data[off+4:])
		z := binary.LittleEndian.Uint32(data[off+8:])
		r := binary.LittleEndian.Uint32(data[off+12:])
		if !finite32(x) || !finite32(y) || !finite32(z) || !finite32(r) {
			dst.Reset()
			return fmt.Errorf("point %d: %w", i, ErrNonFinite)
		}
		pts[i] = Point{
			X:           float64(math.Float32frombits(x)),
			Y:           float64(math.Float32frombits(y)),
			Z:           float64(math.Float32frombits(z)),
			Reflectance: float64(math.Float32frombits(r)),
		}
		off += rawPointSize
	}
	return nil
}

// finite32 reports whether the float32 with these bits is neither NaN
// nor ±Inf (whose exponent bits are all set).
func finite32(bits uint32) bool { return bits&0x7f800000 != 0x7f800000 }

// checkOrigin returns ErrNonFinite unless every origin coordinate is
// finite: a NaN or ±Inf origin would make every decoded point non-finite.
func checkOrigin(o geom.Vec3) error {
	for _, v := range [3]float64{o.X, o.Y, o.Z} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("origin (%g,%g,%g): %w", o.X, o.Y, o.Z, ErrNonFinite)
		}
	}
	return nil
}

func decodeQuantizedInto(data []byte, dst *Cloud) error {
	if len(data) < quantHeaderSize {
		return ErrTruncated
	}
	n, err := checkFrameLen(data, quantHeaderSize, quantPointSize, binary.LittleEndian.Uint32(data[4:]))
	if err != nil {
		return err
	}
	ox := math.Float64frombits(binary.LittleEndian.Uint64(data[8:]))
	oy := math.Float64frombits(binary.LittleEndian.Uint64(data[16:]))
	oz := math.Float64frombits(binary.LittleEndian.Uint64(data[24:]))
	if err := checkOrigin(geom.V3(ox, oy, oz)); err != nil {
		return err
	}
	pts := dst.ensure(n)
	off := quantHeaderSize
	for i := 0; i < n; i++ {
		dx := int16(binary.LittleEndian.Uint16(data[off:]))
		dy := int16(binary.LittleEndian.Uint16(data[off+2:]))
		dz := int16(binary.LittleEndian.Uint16(data[off+4:]))
		pts[i] = Point{
			X:           ox + float64(dx)*QuantStep,
			Y:           oy + float64(dy)*QuantStep,
			Z:           oz + float64(dz)*QuantStep,
			Reflectance: float64(data[off+6]) / 255,
		}
		off += quantPointSize
	}
	return nil
}

// EncodedSizeQuantized returns the quantized-format wire size in bytes for
// n points.
func EncodedSizeQuantized(n int) int { return quantHeaderSize + quantPointSize*n }

// QuantizedPointsFor inverts EncodedSizeQuantized: the point count a
// quantized encoding of the given wire size carries (0 for sizes smaller
// than a header).
func QuantizedPointsFor(encodedBytes int) int {
	if encodedBytes <= quantHeaderSize {
		return 0
	}
	return (encodedBytes - quantHeaderSize) / quantPointSize
}

package pointcloud

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"cooper/internal/geom"
)

// Temporal delta codec (wire format v3, magic CPD1). Consecutive LiDAR
// frames from the same sensor overlap heavily, but range noise at the
// codec's own 2 cm resolution means the overlap is *near*-identity, not
// cell identity. The delta format therefore aligns the current frame's
// quantized records against the publisher's last keyframe index-by-index
// and transmits residuals:
//
//	class 0 — exact match after the lattice bias: 0 bytes
//	class 1 — small residual: 2 bytes of signed 4-bit nibbles
//	class 2 — replaced record: full 7-byte absolute record
//	class 3 — inserted record (no keyframe counterpart): 7 bytes
//
// plus a removal bitmask over keyframe records with no counterpart. A
// per-frame bias — the median lattice shift between index-aligned
// records — absorbs any uniform shift between the two frames' lattices,
// so a platoon cruising at constant velocity deltas as cheaply as a
// parked fleet. Reconstruction is exact: decoding a delta yields bit-for-bit
// the cloud Decode(EncodeQuantized(frame)) would, so the fused detections
// downstream cannot tell v3 from v2.
//
// Wire layout, common header (44 bytes):
//
//	off  size  field
//	0    4     magic "CPD1"
//	4    1     kind: 0 keyframe, 1 delta
//	5    3     reserved, zero
//	8    8     seq — this frame's sequence number
//	16   4     count — points in this frame
//	20   24    origin — the frame's CPQ1 quantization origin (3×float64)
//
// Keyframe body: count × 7-byte quantized records, identical to CPQ1
// records against the header origin. Delta body:
//
//	44   8     baseSeq — the keyframe this delta is keyed to
//	52   4     keyCount — that keyframe's point count (binding check)
//	56   6     bias — 3×int16 lattice shift, cellF = cellK + bias + residual
//	62   ⌈keyCount/8⌉  removal mask (bit i ⇒ keyframe record i dropped)
//	…    ⌈count/4⌉     class stream, 2 bits per point, LSB-first in each byte
//	…    …     per-point payload in frame order (see classes above)
//
// Unused padding bits in the mask and class stream must be zero.

var magicDelta = [4]byte{'C', 'P', 'D', '1'}

// Delta codec errors.
var (
	ErrNeedsKeyframe = errors.New("pointcloud: delta frame without keyframe state")
	ErrStaleKeyframe = errors.New("pointcloud: delta keyed to a different keyframe")
	ErrCorruptDelta  = errors.New("pointcloud: corrupt delta frame")
)

const (
	deltaKindKeyframe = 0
	deltaKindDelta    = 1

	deltaCommonSize = 4 + 1 + 3 + 8 + 4 + 3*8 // through origin
	deltaHeaderSize = deltaCommonSize + 8 + 4 + 6

	// DefaultKeyframeInterval is the keyframe cadence when a
	// DeltaEncoder's Interval is zero: one keyframe then up to nine
	// deltas before the next.
	DefaultKeyframeInterval = 10
)

// qrec is one quantized point record: lattice cells plus reflectance.
type qrec struct {
	x, y, z int16
	r       uint8
}

// IsDeltaFrame reports whether data carries the CPD1 magic (keyframe or
// delta) — the routing check for v3-aware consumers like the hub.
func IsDeltaFrame(data []byte) bool {
	return len(data) >= 4 && [4]byte{data[0], data[1], data[2], data[3]} == magicDelta
}

// EncodedSizeDeltaKeyframe returns the CPD1 keyframe wire size for n
// points — the delta stream's worst case, and its automatic fallback.
func EncodedSizeDeltaKeyframe(n int) int { return deltaCommonSize + quantPointSize*n }

// quantizeInto quantizes a cloud against its origin into recs (reusing
// capacity). It mirrors EncodeQuantized exactly, range errors included.
func quantizeInto(c *Cloud, origin geom.Vec3, recs []qrec) ([]qrec, error) {
	recs = recs[:0]
	for i, p := range c.pts {
		var qx, qy, qz int16
		if i > 0 {
			var okx, oky, okz bool
			qx, okx = quantCell(p.X, origin.X)
			qy, oky = quantCell(p.Y, origin.Y)
			qz, okz = quantCell(p.Z, origin.Z)
			if !okx || !oky || !okz {
				return recs, fmt.Errorf("point at (%g,%g,%g): %w", p.X, p.Y, p.Z, ErrTooLarge)
			}
		}
		// The first point is the zero cell by construction, mirroring
		// EncodeQuantized.
		recs = append(recs, qrec{x: qx, y: qy, z: qz, r: quantReflectance(p.Reflectance)})
	}
	return recs, nil
}

// DeltaEncoder turns a per-sender frame sequence into a CPD1 stream:
// keyframes at the configured interval, deltas keyed to the last keyframe
// in between, with automatic keyframe fallback whenever a delta would not
// beat the full encoding (fast scene change, lost overlap, bias
// overflow). The zero value is ready to use and emits a keyframe first.
// Not safe for concurrent use; use one encoder per sender stream.
type DeltaEncoder struct {
	// Interval is the maximum frames per keyframe: a keyframe followed by
	// up to Interval−1 deltas. Zero means DefaultKeyframeInterval; one
	// forces every frame to be a keyframe.
	Interval int

	hasKey bool
	key    []qrec
	keySeq uint64
	since  int // frames emitted since the last keyframe, inclusive

	scratch []qrec
}

// ForceKeyframe drops the encoder's keyframe state so the next Encode
// emits a keyframe regardless of the interval — the publisher's recovery
// path when the hub reports missing or stale keyframe state.
func (e *DeltaEncoder) ForceKeyframe() {
	e.hasKey = false
	e.since = 0
}

// Encode emits the next frame of the stream and reports whether it chose
// a keyframe. seq must identify the frame uniquely within the stream
// (monotonic publish sequence numbers do). The returned buffer is freshly
// allocated; the cloud is not retained.
func (e *DeltaEncoder) Encode(c *Cloud, seq uint64) (data []byte, keyframe bool, err error) {
	origin, err := quantOrigin(c)
	if err != nil {
		return nil, false, err
	}
	e.scratch, err = quantizeInto(c, origin, e.scratch)
	if err != nil {
		return nil, false, err
	}
	interval := e.Interval
	if interval <= 0 {
		interval = DefaultKeyframeInterval
	}
	if e.hasKey && e.since < interval {
		if delta, ok := buildDelta(e.scratch, e.key, origin, seq, e.keySeq); ok &&
			len(delta) < EncodedSizeDeltaKeyframe(len(e.scratch)) {
			e.since++
			return delta, false, nil
		}
	}
	data = encodeDeltaKeyframe(e.scratch, origin, seq)
	// Swap the frame buffer into the keyframe slot so steady state
	// re-keys without reallocating.
	e.key, e.scratch = e.scratch, e.key[:0]
	e.keySeq = seq
	e.hasKey, e.since = true, 1
	return data, true, nil
}

func putDeltaCommon(buf []byte, kind byte, seq uint64, count int, origin geom.Vec3) {
	copy(buf, magicDelta[:])
	buf[4] = kind
	binary.LittleEndian.PutUint64(buf[8:], seq)
	binary.LittleEndian.PutUint32(buf[16:], uint32(count))
	binary.LittleEndian.PutUint64(buf[20:], math.Float64bits(origin.X))
	binary.LittleEndian.PutUint64(buf[28:], math.Float64bits(origin.Y))
	binary.LittleEndian.PutUint64(buf[36:], math.Float64bits(origin.Z))
}

func encodeDeltaKeyframe(recs []qrec, origin geom.Vec3, seq uint64) []byte {
	buf := make([]byte, EncodedSizeDeltaKeyframe(len(recs)))
	putDeltaCommon(buf, deltaKindKeyframe, seq, len(recs), origin)
	off := deltaCommonSize
	for _, q := range recs {
		putQrec(buf[off:], q)
		off += quantPointSize
	}
	return buf
}

func putQrec(b []byte, q qrec) {
	binary.LittleEndian.PutUint16(b, uint16(q.x))
	binary.LittleEndian.PutUint16(b[2:], uint16(q.y))
	binary.LittleEndian.PutUint16(b[4:], uint16(q.z))
	b[6] = q.r
}

func getQrec(b []byte) qrec {
	return qrec{
		x: int16(binary.LittleEndian.Uint16(b)),
		y: int16(binary.LittleEndian.Uint16(b[2:])),
		z: int16(binary.LittleEndian.Uint16(b[4:])),
		r: b[6],
	}
}

// biasSample bounds the prefix used to estimate the bias: early indexes
// have accumulated few insertions/dropouts, so their index-aligned diffs
// reflect the true shift; the median rejects the stragglers.
const biasSample = 33

// estimateBias picks the per-axis lattice bias that aligns the frame's
// records with the keyframe's: the component-wise median of the
// index-aligned record differences over a short prefix. Each frame is
// quantized against its own origin (the first point, which rides along
// with the scene), so the bias is near zero for both a parked fleet and
// uniform ego-motion, and equals the origin shift when the scene is
// static but the origin point changed. ok is false when the shift leaves
// int16 — the encoder then falls back to a keyframe.
func estimateBias(frame, key []qrec) (bx, by, bz int, ok bool) {
	m := min(min(len(frame), len(key)), biasSample)
	if m == 0 {
		return 0, 0, 0, true
	}
	var dx, dy, dz [biasSample]int
	for i := 0; i < m; i++ {
		dx[i] = int(frame[i].x) - int(key[i].x)
		dy[i] = int(frame[i].y) - int(key[i].y)
		dz[i] = int(frame[i].z) - int(key[i].z)
	}
	bx = medianOf(dx[:m])
	by = medianOf(dy[:m])
	bz = medianOf(dz[:m])
	if bx < minQuantCell || bx > maxQuantCell || by < minQuantCell || by > maxQuantCell ||
		bz < minQuantCell || bz > maxQuantCell {
		return 0, 0, 0, false
	}
	return bx, by, bz, true
}

// medianOf returns the median of a small slice, sorting it in place.
func medianOf(v []int) int {
	sort.Ints(v)
	return v[len(v)/2]
}

// classOf classifies a frame record against a keyframe record under the
// bias: 0 exact, 1 nibble residual (each component in [−8, 7]), 2 no fit.
func classOf(f, k qrec, bx, by, bz int) int {
	dx := int(f.x) - int(k.x) - bx
	dy := int(f.y) - int(k.y) - by
	dz := int(f.z) - int(k.z) - bz
	dr := int(f.r) - int(k.r)
	if dx == 0 && dy == 0 && dz == 0 && dr == 0 {
		return 0
	}
	if dx >= -8 && dx <= 7 && dy >= -8 && dy <= 7 && dz >= -8 && dz <= 7 && dr >= -8 && dr <= 7 {
		return 1
	}
	return 2
}

// buildDelta encodes frame against key with a greedy one-lookahead
// alignment: on a mismatch it first tries dropping the keyframe record
// (sensor dropout on the keyframe side), then treating the frame record
// as an insertion (dropout on the frame side), and only then a full
// replacement. ok is false when the frames are too far apart to bias.
func buildDelta(frame, key []qrec, originF geom.Vec3, seq, baseSeq uint64) ([]byte, bool) {
	bx, by, bz, ok := estimateBias(frame, key)
	if !ok {
		return nil, false
	}
	n, nk := len(frame), len(key)
	mask := make([]byte, (nk+7)/8)
	classes := make([]byte, (n+3)/4)
	payload := make([]byte, 0, 2*n)
	setClass := func(j, c int) { classes[j/4] |= byte(c) << (2 * (j % 4)) }
	emitNibbles := func(f, k qrec) {
		dx := int(f.x) - int(k.x) - bx
		dy := int(f.y) - int(k.y) - by
		dz := int(f.z) - int(k.z) - bz
		dr := int(f.r) - int(k.r)
		payload = append(payload,
			byte(dx+8)<<4|byte(dy+8),
			byte(dz+8)<<4|byte(dr+8))
	}
	emitAbs := func(f qrec) {
		var rec [quantPointSize]byte
		putQrec(rec[:], f)
		payload = append(payload, rec[:]...)
	}
	emitMatch := func(j int, f, k qrec, c int) {
		setClass(j, c)
		if c == 1 {
			emitNibbles(f, k)
		}
	}
	i := 0
	for j := 0; j < n; j++ {
		f := frame[j]
		if i >= nk {
			setClass(j, 3)
			emitAbs(f)
			continue
		}
		if c := classOf(f, key[i], bx, by, bz); c <= 1 {
			emitMatch(j, f, key[i], c)
			i++
			continue
		}
		if i+1 < nk {
			if c := classOf(f, key[i+1], bx, by, bz); c <= 1 {
				mask[i/8] |= 1 << (i % 8)
				i++
				emitMatch(j, f, key[i], c)
				i++
				continue
			}
		}
		if j+1 < n && classOf(frame[j+1], key[i], bx, by, bz) <= 1 {
			setClass(j, 3)
			emitAbs(f)
			continue
		}
		setClass(j, 2)
		emitAbs(f)
		i++
	}
	for ; i < nk; i++ {
		mask[i/8] |= 1 << (i % 8)
	}

	buf := make([]byte, 0, deltaHeaderSize+len(mask)+len(classes)+len(payload))
	buf = buf[:deltaHeaderSize]
	putDeltaCommon(buf, deltaKindDelta, seq, n, originF)
	binary.LittleEndian.PutUint64(buf[deltaCommonSize:], baseSeq)
	binary.LittleEndian.PutUint32(buf[deltaCommonSize+8:], uint32(nk))
	binary.LittleEndian.PutUint16(buf[deltaCommonSize+12:], uint16(int16(bx)))
	binary.LittleEndian.PutUint16(buf[deltaCommonSize+14:], uint16(int16(by)))
	binary.LittleEndian.PutUint16(buf[deltaCommonSize+16:], uint16(int16(bz)))
	buf = append(buf, mask...)
	buf = append(buf, classes...)
	buf = append(buf, payload...)
	return buf, true
}

// DeltaDecoder reconstructs full frames from one sender's CPD1 stream.
// Keyframes refresh its state; deltas apply against the retained
// keyframe. The zero value is ready and rejects deltas until it has seen
// a keyframe. Not safe for concurrent use.
type DeltaDecoder struct {
	hasKey bool
	key    []qrec
	keySeq uint64
}

// KeyframeSeq returns the sequence number of the retained keyframe and
// whether one has been seen.
func (d *DeltaDecoder) KeyframeSeq() (uint64, bool) { return d.keySeq, d.hasKey }

// Decode reconstructs the frame into a fresh cloud. See DecodeInto.
func (d *DeltaDecoder) Decode(data []byte) (*Cloud, error) {
	out := &Cloud{}
	if err := d.DecodeInto(data, out); err != nil {
		return nil, err
	}
	return out, nil
}

// DecodeInto reconstructs a CPD1 frame into dst, reusing dst's capacity.
// The result is bit-identical to decoding the frame's full CPQ1 encoding.
// Deltas that do not match the retained keyframe return ErrNeedsKeyframe
// or ErrStaleKeyframe without disturbing decoder state — the sender is
// expected to answer with a fresh keyframe. dst is left empty on error.
func (d *DeltaDecoder) DecodeInto(data []byte, dst *Cloud) error {
	dst.Reset()
	kind, seq, n, origin, err := parseDeltaCommon(data)
	if err != nil {
		return err
	}
	switch kind {
	case deltaKindKeyframe:
		if _, err := checkFrameLen(data, deltaCommonSize, quantPointSize, uint32(n)); err != nil {
			return err
		}
		d.key = decodeKeyframeRecs(data, n, d.key)
		d.keySeq, d.hasKey = seq, true
		reconstruct(dst, d.key, origin)
		return nil
	case deltaKindDelta:
		if !d.hasKey {
			return ErrNeedsKeyframe
		}
		return d.applyDelta(data, n, origin, dst)
	default:
		return fmt.Errorf("%w: unknown frame kind %d", ErrCorruptDelta, kind)
	}
}

func parseDeltaCommon(data []byte) (kind byte, seq uint64, n int, origin geom.Vec3, err error) {
	if len(data) < deltaCommonSize {
		return 0, 0, 0, geom.Vec3{}, ErrTruncated
	}
	if [4]byte{data[0], data[1], data[2], data[3]} != magicDelta {
		return 0, 0, 0, geom.Vec3{}, fmt.Errorf("%w: %q", ErrBadMagic, data[:4])
	}
	if data[5] != 0 || data[6] != 0 || data[7] != 0 {
		return 0, 0, 0, geom.Vec3{}, fmt.Errorf("%w: nonzero reserved bytes", ErrCorruptDelta)
	}
	count := binary.LittleEndian.Uint32(data[16:])
	// The frame must at least carry its class stream (delta) or records
	// (keyframe); either bounds count by the buffer, so the int
	// conversion below cannot be fooled by an adversarial count.
	if uint64(count) > uint64(len(data))*4 {
		return 0, 0, 0, geom.Vec3{}, ErrTruncated
	}
	origin = geom.V3(
		math.Float64frombits(binary.LittleEndian.Uint64(data[20:])),
		math.Float64frombits(binary.LittleEndian.Uint64(data[28:])),
		math.Float64frombits(binary.LittleEndian.Uint64(data[36:])),
	)
	if err := checkOrigin(origin); err != nil {
		return 0, 0, 0, geom.Vec3{}, err
	}
	return data[4], binary.LittleEndian.Uint64(data[8:]), int(count), origin, nil
}

func decodeKeyframeRecs(data []byte, n int, recs []qrec) []qrec {
	recs = recs[:0]
	off := deltaCommonSize
	for i := 0; i < n; i++ {
		recs = append(recs, getQrec(data[off:]))
		off += quantPointSize
	}
	return recs
}

// reconstruct materialises quantized records into dst — the same
// arithmetic as decodeQuantizedInto, hence bit-identical floats.
func reconstruct(dst *Cloud, recs []qrec, origin geom.Vec3) {
	pts := dst.ensure(len(recs))
	for i, q := range recs {
		pts[i] = Point{
			X:           origin.X + float64(q.x)*QuantStep,
			Y:           origin.Y + float64(q.y)*QuantStep,
			Z:           origin.Z + float64(q.z)*QuantStep,
			Reflectance: float64(q.r) / 255,
		}
	}
}

func (d *DeltaDecoder) applyDelta(data []byte, n int, origin geom.Vec3, dst *Cloud) error {
	if len(data) < deltaHeaderSize {
		return ErrTruncated
	}
	baseSeq := binary.LittleEndian.Uint64(data[deltaCommonSize:])
	keyCount := binary.LittleEndian.Uint32(data[deltaCommonSize+8:])
	if baseSeq != d.keySeq || int(keyCount) != len(d.key) {
		return fmt.Errorf("%w: delta base seq=%d count=%d, have seq=%d count=%d",
			ErrStaleKeyframe, baseSeq, keyCount, d.keySeq, len(d.key))
	}
	bx := int(int16(binary.LittleEndian.Uint16(data[deltaCommonSize+12:])))
	by := int(int16(binary.LittleEndian.Uint16(data[deltaCommonSize+14:])))
	bz := int(int16(binary.LittleEndian.Uint16(data[deltaCommonSize+16:])))

	nk := len(d.key)
	maskLen, classLen := (nk+7)/8, (n+3)/4
	if len(data) < deltaHeaderSize+maskLen+classLen {
		return ErrTruncated
	}
	mask := data[deltaHeaderSize : deltaHeaderSize+maskLen]
	classes := data[deltaHeaderSize+maskLen : deltaHeaderSize+maskLen+classLen]
	if nk%8 != 0 && mask[maskLen-1]>>(nk%8) != 0 {
		return fmt.Errorf("%w: nonzero removal-mask padding", ErrCorruptDelta)
	}
	if n%4 != 0 && classes[classLen-1]>>(2*(n%4)) != 0 {
		return fmt.Errorf("%w: nonzero class-stream padding", ErrCorruptDelta)
	}
	payload := data[deltaHeaderSize+maskLen+classLen:]

	pts := dst.ensure(n)
	i, off := 0, 0
	removed := func(k int) bool { return mask[k/8]&(1<<(k%8)) != 0 }
	for j := 0; j < n; j++ {
		class := int(classes[j/4]>>(2*(j%4))) & 3
		var q qrec
		if class < 3 {
			for i < nk && removed(i) {
				i++
			}
			if i >= nk {
				dst.Reset()
				return fmt.Errorf("%w: class stream outruns surviving keyframe records", ErrCorruptDelta)
			}
		}
		switch class {
		case 0, 1:
			k := d.key[i]
			i++
			cx, cy, cz, cr := int(k.x)+bx, int(k.y)+by, int(k.z)+bz, int(k.r)
			if class == 1 {
				if off+2 > len(payload) {
					dst.Reset()
					return ErrTruncated
				}
				b0, b1 := payload[off], payload[off+1]
				off += 2
				cx += int(b0>>4) - 8
				cy += int(b0&0xf) - 8
				cz += int(b1>>4) - 8
				cr += int(b1&0xf) - 8
			}
			if cx < minQuantCell || cx > maxQuantCell || cy < minQuantCell || cy > maxQuantCell ||
				cz < minQuantCell || cz > maxQuantCell || cr < 0 || cr > 255 {
				dst.Reset()
				return fmt.Errorf("%w: residual leaves cell range", ErrCorruptDelta)
			}
			q = qrec{x: int16(cx), y: int16(cy), z: int16(cz), r: uint8(cr)}
		case 2, 3:
			if class == 2 {
				i++
			}
			if off+quantPointSize > len(payload) {
				dst.Reset()
				return ErrTruncated
			}
			q = getQrec(payload[off:])
			off += quantPointSize
		}
		pts[j] = Point{
			X:           origin.X + float64(q.x)*QuantStep,
			Y:           origin.Y + float64(q.y)*QuantStep,
			Z:           origin.Z + float64(q.z)*QuantStep,
			Reflectance: float64(q.r) / 255,
		}
	}
	for i < nk && removed(i) {
		i++
	}
	if i != nk {
		dst.Reset()
		return fmt.Errorf("%w: %d surviving keyframe records unconsumed", ErrCorruptDelta, nk-i)
	}
	if off != len(payload) {
		dst.Reset()
		return ErrTrailing
	}
	return nil
}

// decodeDeltaStandalone lets Decode/DecodeInto handle CPD1 keyframes
// (self-contained by construction) without a DeltaDecoder; bare deltas
// need keyframe state and return ErrNeedsKeyframe.
func decodeDeltaStandalone(data []byte, dst *Cloud) error {
	kind, _, n, origin, err := parseDeltaCommon(data)
	if err != nil {
		return err
	}
	switch kind {
	case deltaKindKeyframe:
		if _, err := checkFrameLen(data, deltaCommonSize, quantPointSize, uint32(n)); err != nil {
			return err
		}
		recs := decodeKeyframeRecs(data, n, nil)
		reconstruct(dst, recs, origin)
		return nil
	case deltaKindDelta:
		return ErrNeedsKeyframe
	default:
		return fmt.Errorf("%w: unknown frame kind %d", ErrCorruptDelta, kind)
	}
}

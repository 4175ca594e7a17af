package spod

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// Feature-frame wire codec. The encoding mirrors the frame's CSR layout
// directly — columns ascending by packed (x, y), sites z-ascending within
// each column — with the column offsets delta-coded as per-column site
// counts and the three float64 channels quantized to uint8 against
// per-frame scales. The fixed record widths make the wire size an exact
// closed form, which the ROI budget ladder relies on:
//
//	size = featureHeaderSize + 5·columns + 4·sites
//
// Layout (little endian):
//
//	[0:4)   magic "CPF3"
//	[4:12)  SizeXY  float64
//	[12:20) SizeZ   float64
//	[20:28) GroundZ float64
//	[28:52) channel scales, 3 × float64 (value = quantum × scale)
//	[52:56) column count  uint32
//	[56:60) site count    uint32
//	[60:)   columns: {x int16, y int16, nSites uint8} × columns
//	then    sites:   {z+zBias uint8, 3 × channel uint8} × sites
//
// featureMagic identifies a version-3 feature-frame payload.
var featureMagic = [4]byte{'C', 'P', 'F', '3'}

const (
	featureHeaderSize = 60
	featureColBytes   = 5
	featureSiteBytes  = 1 + convChannels
	// featureZBias maps the signed voxel z layer onto the wire byte;
	// layers outside [-featureZBias, 255-featureZBias] cannot occur for
	// ground-anchored clouds and are dropped at encode time.
	featureZBias = 64
	// maxFeatureColSites is the per-column site capacity of the uint8
	// delta-coded column offsets.
	maxFeatureColSites = 255
)

// ErrFeaturePayload is wrapped by every feature-frame decode error.
var ErrFeaturePayload = errors.New("invalid feature payload")

// FeatureFrameSize returns the exact encoded size of a frame with the
// given column and site counts.
func FeatureFrameSize(columns, sites int) int {
	return featureHeaderSize + featureColBytes*columns + featureSiteBytes*sites
}

// EncodedSize returns the frame's exact wire size in bytes.
func (f *FeatureFrame) EncodedSize() int {
	return FeatureFrameSize(len(f.Cols), len(f.Zs))
}

// Encode serialises the frame. Sites whose z layer or column coordinate
// falls outside the wire's fixed-width ranges are dropped (they cannot
// occur for ground-anchored sensor frames); everything else round-trips
// to within the uint8 channel quantum.
func (f *FeatureFrame) Encode() []byte {
	// Per-channel scales: max/255, so the full dynamic range of each
	// plane survives at uint8 resolution.
	var scales [convChannels]float64
	for i := 0; i < len(f.Zs); i++ {
		for c := 0; c < convChannels; c++ {
			if v := f.Feats[i*convChannels+c]; v > scales[c] {
				scales[c] = v
			}
		}
	}
	for c := range scales {
		scales[c] /= 255
	}

	out := make([]byte, 0, f.EncodedSize())
	out = append(out, featureMagic[:]...)
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(f.SizeXY))
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(f.SizeZ))
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(f.GroundZ))
	for c := 0; c < convChannels; c++ {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(scales[c]))
	}
	countsAt := len(out)
	out = append(out, 0, 0, 0, 0, 0, 0, 0, 0) // column/site counts, patched below

	quant := func(v, scale float64) byte {
		if scale <= 0 {
			return 0
		}
		q := math.Round(v / scale)
		if q < 0 {
			q = 0
		}
		if q > 255 {
			q = 255
		}
		return byte(q)
	}

	var sites []byte
	columns, totalSites := 0, 0
	for ci := range f.Cols {
		x, y := unpackXY(f.Cols[ci])
		if x < math.MinInt16 || x > math.MaxInt16 || y < math.MinInt16 || y > math.MaxInt16 {
			continue
		}
		n := 0
		for site := f.ColOff[ci]; site < f.ColOff[ci+1] && n < maxFeatureColSites; site++ {
			zb := int(f.Zs[site]) + featureZBias
			if zb < 0 || zb > 255 {
				continue
			}
			sites = append(sites, byte(zb))
			for c := 0; c < convChannels; c++ {
				sites = append(sites, quant(f.Feats[int(site)*convChannels+c], scales[c]))
			}
			n++
		}
		if n == 0 {
			continue
		}
		out = binary.LittleEndian.AppendUint16(out, uint16(x))
		out = binary.LittleEndian.AppendUint16(out, uint16(y))
		out = append(out, byte(n))
		columns++
		totalSites += n
	}
	binary.LittleEndian.PutUint32(out[countsAt:], uint32(columns))
	binary.LittleEndian.PutUint32(out[countsAt+4:], uint32(totalSites))
	return append(out, sites...)
}

// DecodeFeatureFrame parses an encoded feature frame, validating every
// structural invariant the fusion path depends on: the declared counts
// must match the payload length exactly, columns must be strictly
// ascending, the delta-coded column offsets must stay monotonic within
// the declared site total, and z layers must ascend within each column.
// Corrupt or truncated input yields an error wrapping ErrFeaturePayload;
// decode never panics.
func DecodeFeatureFrame(data []byte) (*FeatureFrame, error) {
	if len(data) < featureHeaderSize {
		return nil, fmt.Errorf("%w: truncated header (%d bytes)", ErrFeaturePayload, len(data))
	}
	if [4]byte(data[:4]) != featureMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrFeaturePayload, data[:4])
	}
	f := &FeatureFrame{
		SizeXY:  math.Float64frombits(binary.LittleEndian.Uint64(data[4:])),
		SizeZ:   math.Float64frombits(binary.LittleEndian.Uint64(data[12:])),
		GroundZ: math.Float64frombits(binary.LittleEndian.Uint64(data[20:])),
	}
	if !(f.SizeXY > 0) || f.SizeXY > 1e6 || !(f.SizeZ > 0) || f.SizeZ > 1e6 {
		return nil, fmt.Errorf("%w: bad voxel size (%g, %g)", ErrFeaturePayload, f.SizeXY, f.SizeZ)
	}
	if math.IsNaN(f.GroundZ) || math.IsInf(f.GroundZ, 0) {
		return nil, fmt.Errorf("%w: bad ground height", ErrFeaturePayload)
	}
	var scales [convChannels]float64
	for c := 0; c < convChannels; c++ {
		scales[c] = math.Float64frombits(binary.LittleEndian.Uint64(data[28+8*c:]))
		if scales[c] < 0 || math.IsNaN(scales[c]) || math.IsInf(scales[c], 0) {
			return nil, fmt.Errorf("%w: bad channel scale %d", ErrFeaturePayload, c)
		}
	}
	columns := int(binary.LittleEndian.Uint32(data[52:]))
	sites := int(binary.LittleEndian.Uint32(data[56:]))
	if want := FeatureFrameSize(columns, sites); want != len(data) {
		return nil, fmt.Errorf("%w: declared %d columns / %d sites need %d bytes, have %d",
			ErrFeaturePayload, columns, sites, want, len(data))
	}

	f.Cols = make([]colKey, 0, columns)
	f.ColOff = make([]int32, 1, columns+1)
	f.Zs = make([]int32, 0, sites)
	f.Feats = make([]float64, 0, sites*convChannels)

	colData := data[featureHeaderSize : featureHeaderSize+featureColBytes*columns]
	siteData := data[featureHeaderSize+featureColBytes*columns:]
	off := 0
	for ci := 0; ci < columns; ci++ {
		rec := colData[ci*featureColBytes:]
		x := int32(int16(binary.LittleEndian.Uint16(rec)))
		y := int32(int16(binary.LittleEndian.Uint16(rec[2:])))
		key := packXY(x, y)
		if len(f.Cols) > 0 && key <= f.Cols[len(f.Cols)-1] {
			return nil, fmt.Errorf("%w: columns not strictly ascending at %d", ErrFeaturePayload, ci)
		}
		n := int(rec[4])
		if n == 0 {
			return nil, fmt.Errorf("%w: empty column %d", ErrFeaturePayload, ci)
		}
		if off+n > sites {
			return nil, fmt.Errorf("%w: column offsets exceed declared site count at column %d", ErrFeaturePayload, ci)
		}
		prevZ := int32(math.MinInt32)
		for k := 0; k < n; k++ {
			sr := siteData[(off+k)*featureSiteBytes:]
			z := int32(sr[0]) - featureZBias
			if z <= prevZ {
				return nil, fmt.Errorf("%w: z layers not ascending in column %d", ErrFeaturePayload, ci)
			}
			prevZ = z
			f.Zs = append(f.Zs, z)
			for c := 0; c < convChannels; c++ {
				f.Feats = append(f.Feats, float64(sr[1+c])*scales[c])
			}
		}
		off += n
		f.Cols = append(f.Cols, key)
		f.ColOff = append(f.ColOff, int32(off))
	}
	if off != sites {
		return nil, fmt.Errorf("%w: column offsets end at %d, declared %d sites", ErrFeaturePayload, off, sites)
	}
	return f, nil
}

// IsFeaturePayload reports whether data carries the feature-frame magic —
// the cheap discriminator between raw quantized-cloud payloads and
// feature payloads on shared wire paths.
func IsFeaturePayload(data []byte) bool {
	return len(data) >= 4 && [4]byte(data[:4]) == featureMagic
}

// TrimToBudget fits the frame under a byte budget by keeping the most
// salient columns: columns are ranked by summed density (the proposal
// stage's objectness contribution) with the packed key as tie-break, kept
// greedily while the exact encoded size stays within budget, then
// restored to ascending column order. A budget below the header yields a
// header-only frame, so the feature rung of the ROI ladder always
// succeeds. budget <= 0 means uncapped.
func (f *FeatureFrame) TrimToBudget(budget int) *FeatureFrame {
	if budget <= 0 || f.EncodedSize() <= budget {
		return f
	}
	type ranked struct {
		ci  int
		sum float64
	}
	cols := make([]ranked, len(f.Cols))
	for ci := range f.Cols {
		cols[ci] = ranked{ci: ci, sum: f.columnDensity(ci)}
	}
	slices.SortFunc(cols, func(a, b ranked) int {
		switch {
		case a.sum != b.sum:
			if a.sum > b.sum {
				return -1
			}
			return 1
		default:
			return a.ci - b.ci
		}
	})
	size := featureHeaderSize
	keep := make([]int, 0, len(cols))
	for _, r := range cols {
		cost := featureColBytes + featureSiteBytes*int(f.ColOff[r.ci+1]-f.ColOff[r.ci])
		if size+cost > budget {
			continue
		}
		size += cost
		keep = append(keep, r.ci)
	}
	slices.Sort(keep)

	out := &FeatureFrame{
		SizeXY:  f.SizeXY,
		SizeZ:   f.SizeZ,
		GroundZ: f.GroundZ,
		Cols:    make([]colKey, 0, len(keep)),
		ColOff:  make([]int32, 1, len(keep)+1),
	}
	for _, ci := range keep {
		lo, hi := f.ColOff[ci], f.ColOff[ci+1]
		out.Cols = append(out.Cols, f.Cols[ci])
		out.Zs = append(out.Zs, f.Zs[lo:hi]...)
		out.Feats = append(out.Feats, f.Feats[lo*convChannels:hi*convChannels]...)
		out.ColOff = append(out.ColOff, int32(len(out.Zs)))
	}
	return out
}

package roi

import (
	"errors"
	"sync"

	"cooper/internal/pointcloud"
	"cooper/internal/spod"
)

// Selection is the outcome of fitting one vehicle's frame under a wire
// budget: the encoded payload, the ROI category that produced it and how
// much of the scan survived.
type Selection struct {
	// Payload is the encoding actually transmitted: the quantized cloud
	// for rungs 1–3, the CPF3 feature frame for rung 4.
	Payload []byte
	// Category is the ROI rung that fit: full frame when unconstrained
	// or cheap enough, front FOV otherwise, and the feature frame when
	// even a minimally useful downsample cannot fit.
	Category Category
	// Points is the transmitted unit count: cloud points for rungs 1–3,
	// voxel sites for the feature rung.
	Points int
	// Downsampled reports that the rung's region exceeded the budget and
	// was reduced to fit (stride-downsampled points, trimmed feature
	// columns).
	Downsampled bool
}

// MinStridePoints is the smallest stride-downsampled cloud still worth
// transmitting: below it the surviving points are too scattered to anchor
// a detection, and the ladder prefers the feature rung, whose columns
// carry aggregated evidence instead of isolated points.
const MinStridePoints = 64

// ErrNoSource reports a selection with nothing to select from.
var ErrNoSource = errors.New("roi: source has neither cloud nor features")

// Source is what a budget selection can draw on: the raw sensor cloud
// and/or the detector's exported feature frame. Features may be supplied
// directly or derived lazily via Derive — the feature rung is reached
// rarely, and deriving runs the detector's front half, so callers cache
// behind the closure.
type Source struct {
	Cloud    *pointcloud.Cloud
	Features *spod.FeatureFrame
	// Derive produces the feature frame on demand when Features is nil.
	Derive func() *spod.FeatureFrame
	// Encoded, when set, is the wire encoding Cloud was decoded from. The
	// full-frame rung serves it instead of re-encoding Cloud when
	// pointcloud.IsCanonicalQuantized proves the two identical; any other
	// encoding is ignored.
	Encoded []byte
}

// features resolves the source's feature frame, nil when unavailable.
func (s Source) features() *spod.FeatureFrame {
	if s.Features != nil {
		return s.Features
	}
	if s.Derive != nil {
		return s.Derive()
	}
	return nil
}

// SelectPayload fits a sensor-frame cloud under a per-frame wire budget
// by walking the raw rungs of the ROI ladder (see Select). It is the
// cloud-only compatibility form: without a feature source the
// stride-downsample rung is terminal and always succeeds — a budget
// smaller than one encoding header simply yields an empty (header-only)
// cloud.
func SelectPayload(cloud *pointcloud.Cloud, budgetBytes int) (Selection, error) {
	return Select(Source{Cloud: cloud}, budgetBytes)
}

// Select fits one vehicle's frame under a per-frame wire budget by
// walking the ROI ladder, cheapest acceptable rung first:
//
//  1. full frame (category 1) if it fits or budgetBytes <= 0 (uncapped);
//  2. the 120° front field of view (category 2) if that fits;
//  3. the front FOV stride-downsampled to the budget's point capacity,
//     provided at least MinStridePoints survive;
//  4. the feature frame (category 4), trimmed to the budget — far
//     cheaper per unit of detector evidence, and the only rung a
//     feature-only source can serve.
//
// Selection is deterministic: the same source and budget always produce
// the same payload. The ladder never errors on a hard budget: rung 3 is
// terminal when no feature source exists, rung 4 otherwise — both
// degrade to a header-only payload under a budget too small for any
// content. Select is a one-shot Ladder; callers fitting one frame under
// several budgets keep a Ladder instead.
func Select(src Source, budgetBytes int) (Selection, error) {
	l := Ladder{Source: src}
	return l.Select(budgetBytes)
}

// Ladder is one frame's ROI ladder with its budget-independent rungs
// memoized: the full-frame encoding, the front-FOV crop and the front-FOV
// encoding are each derived at most once, on the first Select that
// reaches them, and shared by every later Select at any budget. Only the
// budget-dependent steps — the size comparisons, the stride downsample
// and the feature trim — run per call. The feature rung has nothing
// budget-independent beyond the feature frame, which callers cache behind
// Source.Derive, so a feature-only selection is SelectFeature(l.Source, b).
//
// Set Source before the first Select and leave it unchanged; the zero
// value plus a Source is ready to use, so a Ladder can live by value next
// to the frame it describes. All methods are safe for concurrent use.
// Payloads of the memoized rungs are shared between calls: callers must
// not mutate them.
type Ladder struct {
	Source Source

	fullOnce sync.Once
	full     []byte
	fullErr  error

	frontOnce sync.Once
	front     *pointcloud.Cloud
	frontEnc  []byte
	frontErr  error
}

// fullFrame returns the category-1 payload, reusing Source.Encoded when
// it is canonical.
func (l *Ladder) fullFrame() ([]byte, error) {
	l.fullOnce.Do(func() {
		if pointcloud.IsCanonicalQuantized(l.Source.Encoded) {
			l.full = l.Source.Encoded
			return
		}
		l.full, l.fullErr = pointcloud.EncodeQuantized(l.Source.Cloud)
	})
	return l.full, l.fullErr
}

// frontFOV returns the category-2 crop and its encoding.
func (l *Ladder) frontFOV() (*pointcloud.Cloud, []byte, error) {
	l.frontOnce.Do(func() {
		l.front = Extract(l.Source.Cloud, CategoryFrontFOV)
		l.frontEnc, l.frontErr = pointcloud.EncodeQuantized(l.front)
	})
	return l.front, l.frontEnc, l.frontErr
}

// Select walks the ladder under the budget (see the package-level
// Select for the rungs and guarantees).
func (l *Ladder) Select(budgetBytes int) (Selection, error) {
	cloud := l.Source.Cloud
	if cloud == nil {
		return SelectFeature(l.Source, budgetBytes)
	}

	full, err := l.fullFrame()
	if err != nil {
		return Selection{}, err
	}
	if budgetBytes <= 0 || len(full) <= budgetBytes {
		return Selection{Payload: full, Category: CategoryFullFrame, Points: cloud.Len()}, nil
	}

	front, enc, err := l.frontFOV()
	if err != nil {
		return Selection{}, err
	}
	if len(enc) <= budgetBytes {
		return Selection{Payload: enc, Category: CategoryFrontFOV, Points: front.Len()}, nil
	}

	capacity := pointcloud.MaxQuantizedPoints(budgetBytes)
	if capacity < MinStridePoints {
		if f := l.Source.features(); f != nil {
			return selectFeature(f, budgetBytes), nil
		}
		// No feature source: the stride rung stays terminal
		// (compatibility with cloud-only callers), however small the
		// budget.
	}
	reduced := front.DownsampleTo(capacity)
	if enc, err = pointcloud.EncodeQuantized(reduced); err != nil {
		return Selection{}, err
	}
	return Selection{Payload: enc, Category: CategoryFrontFOV, Points: reduced.Len(), Downsampled: true}, nil
}

// SelectFeature fits the source's feature frame under the budget — the
// whole ladder of a feature-backend sender, which never transmits raw
// points.
func SelectFeature(src Source, budgetBytes int) (Selection, error) {
	f := src.features()
	if f == nil {
		return Selection{}, ErrNoSource
	}
	return selectFeature(f, budgetBytes), nil
}

// selectFeature trims and encodes a feature frame under the budget.
func selectFeature(f *spod.FeatureFrame, budgetBytes int) Selection {
	trimmed := f.TrimToBudget(budgetBytes)
	return Selection{
		Payload:     trimmed.Encode(),
		Category:    CategoryFeature,
		Points:      trimmed.Sites(),
		Downsampled: trimmed != f,
	}
}

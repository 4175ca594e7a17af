// Package roi implements Cooper's region-of-interest data extraction
// (§IV-G): vehicles do not need to exchange whole scans — the shared
// region is restricted to one of three exchange categories the paper
// illustrates in Fig. 11:
//
//	Category 1 — opposite-direction passing: the full frame is shared
//	             (no physical buffer between the vehicles; the costliest).
//	Category 2 — junction: each vehicle shares its 120° front field of
//	             view, the driver-perspective region.
//	Category 3 — lead/trailing: the leading vehicle shares its front view
//	             one way; the trailing vehicle transmits nothing.
//
// The package also provides the payload accounting used by the Fig. 12
// data-volume experiment. The paper's other §IV-G reduction, subtracting
// background each vehicle has mapped for itself, is not reproduced.
package roi

import (
	"math"

	"cooper/internal/pointcloud"
)

// Category enumerates the paper's three ROI exchange categories.
type Category int

// The three categories of Fig. 11.
const (
	// CategoryFullFrame shares the entire scan (opposite-direction
	// passing, scenario 1).
	CategoryFullFrame Category = iota + 1
	// CategoryFrontFOV shares a 120° front field of view (junctions,
	// scenario 2, both directions).
	CategoryFrontFOV
	// CategoryLeadView shares the leader's front view one way
	// (lead/trailing, scenario 3).
	CategoryLeadView
	// CategoryFeature shares the detector's sparse post-convolution
	// feature frame instead of points — the feature-level (F-Cooper)
	// rung, far cheaper per unit of detector evidence and the fallback
	// when a point payload cannot fit the budget.
	CategoryFeature
)

// String implements fmt.Stringer.
func (c Category) String() string {
	switch c {
	case CategoryFullFrame:
		return "ROI 1 (full frame)"
	case CategoryFrontFOV:
		return "ROI 2 (120° front FOV)"
	case CategoryLeadView:
		return "ROI 3 (lead view, one-way)"
	case CategoryFeature:
		return "ROI 4 (feature frame)"
	default:
		return "ROI ?"
	}
}

// FrontFOVHalfAngle is half the category-2 field of view: the paper uses
// the 120° driver perspective.
const FrontFOVHalfAngle = math.Pi / 3

// Extract applies a category's region restriction to a scan in the
// transmitting vehicle's sensor frame.
func Extract(cloud *pointcloud.Cloud, cat Category) *pointcloud.Cloud {
	switch cat {
	case CategoryFrontFOV, CategoryLeadView:
		return cloud.CropFOV(0, FrontFOVHalfAngle)
	default:
		return cloud.Clone()
	}
}

// Transmissions reports how many directed transfers one cooperative
// exchange of the category requires between two vehicles: categories 1
// and 2 are mutual, category 3 is one-way.
func Transmissions(cat Category) int {
	if cat == CategoryLeadView {
		return 1
	}
	return 2
}

// PayloadBytes returns the quantized wire size of a cloud after category
// extraction — the quantity plotted in Fig. 12.
func PayloadBytes(cloud *pointcloud.Cloud, cat Category) (int, error) {
	enc, err := pointcloud.EncodeQuantized(Extract(cloud, cat))
	if err != nil {
		return 0, err
	}
	return len(enc), nil
}

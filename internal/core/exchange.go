package core

import (
	"errors"
	"fmt"

	"cooper/internal/fusion"
	"cooper/internal/pointcloud"
	"cooper/internal/spod"
)

// ErrNoScan means the vehicle has not sensed yet.
var ErrNoScan = errors.New("core: no scan available")

// CloudFilter selects the subset of a cloud to share; nil shares the full
// frame. The roi package provides the paper's three ROI categories as
// filters.
type CloudFilter func(*pointcloud.Cloud) *pointcloud.Cloud

// PreparePackage builds the vehicle's §II-D exchange unit from its latest
// scan, optionally reduced by a region-of-interest filter: the raw
// backend's quantized cloud plus the vehicle's GPS/IMU state, which the
// receiver needs to map the points into physical positions.
func (v *Vehicle) PreparePackage(filter CloudFilter) (fusion.Payload, error) {
	frame, err := v.SensorFrame(filter)
	if err != nil {
		return fusion.Payload{}, err
	}
	p, err := fusion.RawBackend{}.Encode(frame, nil)
	if err != nil {
		return fusion.Payload{}, fmt.Errorf("vehicle %s: encoding scan: %w", v.ID, err)
	}
	p.SenderID = v.ID
	return p, nil
}

// SensorFrame builds the backend-layer view of the vehicle's latest
// scan — state, (optionally filtered) cloud and detector — the unit a
// fusion.Backend encodes or budget-selects.
func (v *Vehicle) SensorFrame(filter CloudFilter) (fusion.SensorFrame, error) {
	if v.cloud == nil {
		return fusion.SensorFrame{}, fmt.Errorf("vehicle %s: %w", v.ID, ErrNoScan)
	}
	cloud := v.cloud
	if filter != nil {
		cloud = filter(cloud)
	}
	return fusion.SensorFrame{State: v.state, Cloud: cloud, Detector: v.detector}, nil
}

// CooperativeDetect runs the full Cooper pipeline through the raw
// backend: decode, align (Eq. 3), merge (Eq. 2), detect. The detector
// configuration switches to merged-cloud preprocessing and widens its
// range gate to cover every contributing vehicle's surroundings.
func (v *Vehicle) CooperativeDetect(payloads ...fusion.Payload) ([]spod.Detection, spod.Stats, error) {
	own, err := v.SensorFrame(nil)
	if err != nil {
		return nil, spod.Stats{}, err
	}
	in, err := fusion.RawBackend{}.Fuse(own, payloads)
	if err != nil {
		return nil, spod.Stats{}, fmt.Errorf("vehicle %s: %w", v.ID, err)
	}
	dets, stats := in.Detect(v.detector.Config(), nil)
	return dets, stats, nil
}

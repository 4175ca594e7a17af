package fusion

import (
	"fmt"

	"cooper/internal/geom"
	"cooper/internal/pointcloud"
	"cooper/internal/roi"
	"cooper/internal/spod"
)

// SensorFrame is one vehicle's contribution to a cooperative exchange as
// a backend sees it: the GPS/IMU state at capture time, the sensor-frame
// cloud, optionally a pre-derived feature frame (callers holding a cache
// avoid re-running the detector's front half), and optionally the
// vehicle's own detector (whose configuration a feature-level encode
// reuses; nil falls back to the default pipeline). Cloud may be nil for
// feature-only peers; Features then carries the whole frame.
type SensorFrame struct {
	State    VehicleState
	Cloud    *pointcloud.Cloud
	Features *spod.FeatureFrame
	Detector *spod.Detector
}

// source lifts the frame into a budget-selection source, deriving the
// feature frame lazily with the given floor when it is not cached.
func (f SensorFrame) source(floor float64, s *spod.DetectorScratch) roi.Source {
	src := roi.Source{Cloud: f.Cloud, Features: f.Features}
	if src.Features == nil && f.Cloud != nil {
		src.Derive = func() *spod.FeatureFrame {
			return f.detector().EncodeFeatureFrame(f.Cloud, s).Prune(floor)
		}
	}
	return src
}

// detector returns the frame's detector, defaulting when unset.
func (f SensorFrame) detector() *spod.Detector {
	if f.Detector != nil {
		return f.Detector
	}
	return spod.NewDefault()
}

// Payload is one encoded sender contribution on the wire: the bytes plus
// the sender state the receiver aligns with. Points reports the packed
// unit count (cloud points for raw payloads, voxel sites for feature
// payloads) for data-volume accounting.
type Payload struct {
	SenderID string
	State    VehicleState
	Data     []byte
	Points   int
}

// Backend is a pluggable cooperative-fusion strategy: how one sender
// frame becomes wire bytes, and how a receiver turns the collected
// payloads into a detector input. Implementations must be deterministic —
// identical frames and payload order yield identical bytes and fused
// inputs — and stateless, so one backend value serves every worker
// concurrently.
type Backend interface {
	// Name identifies the backend on CLIs and reports ("raw", "feature").
	Name() string
	// Encode builds the payload of one sender frame. A nil scratch draws
	// from the shared pool.
	Encode(f SensorFrame, s *spod.DetectorScratch) (Payload, error)
	// Select fits one sender frame under a per-frame byte budget by
	// walking the backend's ROI ladder (<= 0 is uncapped). It never
	// errors on a hard budget — the cheapest rung degrades to a
	// header-only payload — and serves feature-only frames (nil Cloud)
	// from the feature rung.
	Select(f SensorFrame, budgetBytes int, s *spod.DetectorScratch) (roi.Selection, error)
	// Fuse assembles the receiver's detector input from its own frame and
	// the payloads it collected, in payload order. Payloads of either
	// encoding are accepted: the wire magic discriminates, so a raw
	// session degrades gracefully when a feature-only peer contributes.
	Fuse(receiver SensorFrame, payloads []Payload) (*FusedInput, error)
}

// FusedInput is a backend's fused product, ready for detection: a cloud
// (the receiver's own, or a raw multi-origin merge), plus any
// feature-level remote contributions.
type FusedInput struct {
	// Cloud is the detector's point input.
	Cloud *pointcloud.Cloud
	// Remotes carries aligned feature frames fused past the convolution
	// seam (empty for pure raw fusion).
	Remotes []spod.RemoteFeatures
	// Merged reports that Cloud is a multi-origin merge (raw payloads
	// were folded in), which selects the origin-free dedup preprocessing;
	// otherwise Cloud is the receiver's own single-origin scan and the
	// spherical projection stays on.
	Merged bool
	// MaxDist is the largest receiver↔sender distance, the amount the
	// detector's range gate widens by. Fuse computes it from the GPS
	// states; callers with better knowledge (the scenario runner knows
	// the true inter-vehicle distance) may override it before Detect.
	MaxDist float64
	// ICPCorrections reports, per ICP-refined raw payload in payload
	// order, the magnitude in metres of the residual translation the
	// refinement applied on top of GPS/IMU alignment — the observable
	// telemetry uses to watch localization drift being corrected. Empty
	// when ICP is off or every payload was feature-level.
	ICPCorrections []float64
}

// Detect runs the appropriate cooperative detector configuration over
// the fused input. base is the receiver's single-shot configuration.
func (in *FusedInput) Detect(base spod.Config, s *spod.DetectorScratch) ([]spod.Detection, spod.Stats) {
	var cfg spod.Config
	if in.Merged {
		cfg = spod.CoopConfig(base, in.MaxDist)
	} else {
		cfg = spod.FeatureCoopConfig(base, in.MaxDist)
	}
	return spod.New(cfg).Detect(in.Cloud, in.Remotes, s)
}

// RawBackend is the paper's original strategy, extracted unchanged from
// the hard-coded pipeline: senders transmit their quantized clouds; the
// receiver decodes, GPS/IMU-aligns (Eq. 3), optionally ICP-refines, and
// merges (Eq. 2) before detecting on the union cloud.
type RawBackend struct {
	// UseICP enables the ICP refinement after GPS alignment.
	UseICP bool
}

// Name implements Backend.
func (RawBackend) Name() string { return "raw" }

// Encode implements Backend: the compact quantized cloud codec.
func (RawBackend) Encode(f SensorFrame, _ *spod.DetectorScratch) (Payload, error) {
	data, err := pointcloud.EncodeQuantized(f.Cloud)
	if err != nil {
		return Payload{}, err
	}
	return Payload{State: f.State, Data: data, Points: pointcloud.QuantizedPointsFor(len(data))}, nil
}

// Select implements Backend: the four-rung ladder — full frame, front
// FOV, stride downsample, feature frame — deriving features only when a
// point payload cannot fit.
func (RawBackend) Select(f SensorFrame, budgetBytes int, s *spod.DetectorScratch) (roi.Selection, error) {
	return roi.Select(f.source(DefaultFeatureBackend().TransmitFloor, s), budgetBytes)
}

// Fuse implements Backend: align-and-merge, with feature payloads from
// mixed fleets folded in past the convolution seam instead of erroring.
//
// Every raw payload is decoded first, so the merged cloud is allocated
// once at its final size; each sender's points are then transformed
// straight into it. With ICP on, the GPS/IMU alignment goes to a pooled
// cloud, the refinement reads it, and the correction pass writes the
// merged points. The two passes stay separate: one composed transform
// would round differently.
func (b RawBackend) Fuse(receiver SensorFrame, payloads []Payload) (*FusedInput, error) {
	in := &FusedInput{Cloud: receiver.Cloud, MaxDist: maxSenderDist(receiver, payloads)}
	type rawSender struct {
		cloud *pointcloud.Cloud // decoded, in the sender's frame
		align geom.Transform
	}
	var raws []rawSender
	defer func() {
		for _, r := range raws {
			pointcloud.PutCloud(r.cloud)
		}
	}()
	total := receiver.Cloud.Len()
	for _, p := range payloads {
		if spod.IsFeaturePayload(p.Data) {
			r, err := decodeRemote(receiver, p)
			if err != nil {
				return nil, err
			}
			in.Remotes = append(in.Remotes, r)
			continue
		}
		tmp := pointcloud.GetCloud()
		if err := pointcloud.DecodeInto(p.Data, tmp); err != nil {
			pointcloud.PutCloud(tmp)
			return nil, fmt.Errorf("fusion: raw payload from %s: %w", senderName(p), err)
		}
		raws = append(raws, rawSender{cloud: tmp, align: AlignTransform(receiver.State, p.State)})
		total += tmp.Len()
	}
	if len(raws) == 0 {
		return in, nil
	}
	merged := pointcloud.New(total)
	merged.Append(receiver.Cloud)
	if !b.UseICP {
		for _, r := range raws {
			merged.AppendTransformed(r.cloud, r.align)
		}
	} else {
		// The receiver's ICP reference (ground removal and index) is the
		// same for every sender: prepare it once.
		icp := newICPReference(receiver.Cloud, DefaultICPConfig())
		defer icp.release()
		al := pointcloud.GetCloud()
		defer pointcloud.PutCloud(al)
		for _, r := range raws {
			al.Reset()
			al.AppendTransformed(r.cloud, r.align)
			corr := icp.refine(al)
			merged.AppendTransformed(al, corr)
			in.ICPCorrections = append(in.ICPCorrections, corr.T.Norm())
		}
	}
	in.Cloud = merged
	in.Merged = true
	return in, nil
}

// FeatureBackend is the F-Cooper strategy: senders run stages 1–3 of the
// detector and transmit the sparse post-convolution feature planes — an
// order of magnitude fewer bytes than the raw cloud — and the receiver
// fuses the aligned planes by element-wise max before the proposal stage.
type FeatureBackend struct {
	// TransmitFloor drops sender columns whose summed density channel
	// falls below it before encoding (0 transmits every column). Columns
	// below the proposal threshold can never seed a detection on their
	// own, so a floor tied to it trades no recall for fewer bytes.
	TransmitFloor float64
}

// DefaultFeatureBackend returns the feature backend with the transmit
// floor aligned to the default proposal threshold: columns that could not
// clear the objectness gate even unfused are dropped at the sender.
func DefaultFeatureBackend() FeatureBackend {
	return FeatureBackend{TransmitFloor: spod.DefaultConfig().ObjectnessThreshold}
}

// Name implements Backend.
func (FeatureBackend) Name() string { return "feature" }

// Encode implements Backend: stages 1–3 on the sender, then the CPF3
// codec over the (floored) sparse planes.
func (b FeatureBackend) Encode(f SensorFrame, s *spod.DetectorScratch) (Payload, error) {
	frame := f.Features
	if frame == nil {
		frame = f.detector().EncodeFeatureFrame(f.Cloud, s).Prune(b.TransmitFloor)
	}
	return Payload{State: f.State, Data: frame.Encode(), Points: frame.Sites()}, nil
}

// Select implements Backend: a feature sender's ladder is the feature
// rung alone, trimmed to the budget by column salience.
func (b FeatureBackend) Select(f SensorFrame, budgetBytes int, s *spod.DetectorScratch) (roi.Selection, error) {
	return roi.SelectFeature(f.source(b.TransmitFloor, s), budgetBytes)
}

// Fuse implements Backend: decode every feature frame and hand it to the
// detector's max-merge seam. Both encodings are discriminated by wire
// magic, so feature fusion shares the raw backend's one deterministic
// assembly path and mixed fleets (raw payloads alongside feature ones)
// fold in as cloud merges.
func (FeatureBackend) Fuse(receiver SensorFrame, payloads []Payload) (*FusedInput, error) {
	return RawBackend{}.Fuse(receiver, payloads)
}

// decodeRemote decodes a feature payload into an aligned remote
// contribution for the receiver.
func decodeRemote(receiver SensorFrame, p Payload) (spod.RemoteFeatures, error) {
	frame, err := spod.DecodeFeatureFrame(p.Data)
	if err != nil {
		return spod.RemoteFeatures{}, fmt.Errorf("fusion: feature payload from %s: %w", senderName(p), err)
	}
	return spod.RemoteFeatures{Frame: frame, Transform: AlignTransform(receiver.State, p.State)}, nil
}

// maxSenderDist returns the largest ground distance between the receiver
// and any payload's sender.
func maxSenderDist(receiver SensorFrame, payloads []Payload) float64 {
	max := 0.0
	for _, p := range payloads {
		if d := p.State.GPS.DistXY(receiver.State.GPS); d > max {
			max = d
		}
	}
	return max
}

// senderName labels a payload in errors.
func senderName(p Payload) string {
	if p.SenderID != "" {
		return p.SenderID
	}
	return "peer"
}

// Backends lists the selectable fusion backends.
func Backends() []string { return []string{"raw", "feature"} }

// ParseBackend resolves a CLI backend name.
func ParseBackend(name string) (Backend, error) {
	switch name {
	case "", "raw":
		return RawBackend{}, nil
	case "feature":
		return DefaultFeatureBackend(), nil
	default:
		return nil, fmt.Errorf("fusion: unknown backend %q (want raw or feature)", name)
	}
}

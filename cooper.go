// Package cooper is a Go implementation of Cooper — cooperative
// perception for connected autonomous vehicles based on 3D point clouds
// (Chen, Tang, Yang, Fu; ICDCS 2019).
//
// Cooper lets a vehicle merge its own LiDAR sensing with raw point clouds
// received from nearby vehicles: clouds are aligned with GPS/IMU rigid
// transforms, merged at the data level, and fed to the SPOD detector,
// which keeps working on sparse (16-beam) data. Merging extends the
// sensing area, raises detection confidence and recovers objects neither
// vehicle could detect alone — while the exchanged data fits DSRC-class
// vehicular network bandwidth.
//
// The package is a facade over the implementation packages:
//
//	geom        3D math: rotations (Eq. 1), rigid transforms (Eq. 3), boxes, IoU
//	pointcloud  clouds, merging (Eq. 2), filters, wire codecs
//	lidar       spinning multi-beam LiDAR simulation (VLP-16 … HDL-64E)
//	scene       procedural road and parking scenes, paper scenarios
//	spod        the SPOD 3D car detector (spherical preprocessing, voxel
//	            features, sparse convolution, RPN-style proposals, NMS)
//	fusion      GPS/IMU alignment, drift model, ICP refinement
//	roi         region-of-interest extraction and the payload ladder
//	network     DSRC channel model, wire messages, TCP transport
//	hub         fleet hub: concurrent sessions, frame cache, fusion rounds
//	core        vehicles, cooperative detection, episodes
//	eval        matching, detection matrices, accuracy, CDFs
//
// A minimal cooperative round trip:
//
//	rx := cooper.NewVehicle("rx", cooper.VLP16(), rxState, 1)
//	tx := cooper.NewVehicle("tx", cooper.VLP16(), txState, 2)
//	rx.Sense(targets, 0)
//	tx.Sense(targets, 0)
//	pkg, _ := tx.PreparePackage(nil) // a FusionPayload: quantized cloud + state
//	dets, _, _ := rx.CooperativeDetect(pkg)
package cooper

import (
	"io"

	"cooper/internal/core"
	"cooper/internal/eval"
	"cooper/internal/fusion"
	"cooper/internal/geom"
	"cooper/internal/hub"
	"cooper/internal/lidar"
	"cooper/internal/network"
	"cooper/internal/pointcloud"
	"cooper/internal/scene"
	"cooper/internal/spod"
	"cooper/internal/store"
	"cooper/internal/telemetry"
	"cooper/internal/track"
)

// Geometry types.
type (
	// Vec3 is a 3D vector in metres.
	Vec3 = geom.Vec3
	// Box is an upright oriented 3D bounding box.
	Box = geom.Box
	// Transform is a rigid transform (rotation + translation, Eq. 3).
	Transform = geom.Transform
)

// Point-cloud types.
type (
	// Cloud is a LiDAR point cloud.
	Cloud = pointcloud.Cloud
	// Point is one LiDAR return.
	Point = pointcloud.Point
)

// Sensing and scene types.
type (
	// LiDARConfig describes a LiDAR device model.
	LiDARConfig = lidar.Config
	// LiDARTarget is scene geometry a ray can hit.
	LiDARTarget = lidar.Target
	// Scene is a collection of world objects.
	Scene = scene.Scene
	// Scenario is a complete evaluation setup from the paper.
	Scenario = scene.Scenario
)

// Cooper system types.
type (
	// Vehicle is a connected autonomous vehicle.
	Vehicle = core.Vehicle
	// VehicleState is a GPS/IMU pose report.
	VehicleState = fusion.VehicleState
	// Detection is one detected car with its confidence score.
	Detection = spod.Detection
	// Detector runs the SPOD pipeline.
	Detector = spod.Detector
	// DetectorConfig parameterises SPOD.
	DetectorConfig = spod.Config
	// DetectorStats is per-stage instrumentation of one detection pass.
	DetectorStats = spod.Stats
	// DetectorScratch owns a detection pass's reusable buffers; hold one
	// per goroutine and pass it to Detector.Detect for allocation-free
	// steady-state detection.
	DetectorScratch = spod.DetectorScratch
	// DriftMode selects a Fig. 10 GPS skew regime.
	DriftMode = fusion.DriftMode
	// CaseOutcome is a full single-vs-cooperative case evaluation.
	CaseOutcome = core.CaseOutcome
	// ScenarioRunner evaluates a scenario's cooperative cases.
	ScenarioRunner = core.ScenarioRunner
	// RunOptions adjusts a case run (drift injection, ICP, ROI filter).
	RunOptions = core.RunOptions
	// Cell is one entry of a detection matrix (score / miss / out of area).
	Cell = eval.Cell
)

// LiDAR device presets.
func VLP16() LiDARConfig { return lidar.VLP16() }

// HDL32 returns the 32-beam Velodyne HDL-32E model.
func HDL32() LiDARConfig { return lidar.HDL32() }

// HDL64 returns the 64-beam Velodyne HDL-64E model (the KITTI sensor).
func HDL64() LiDARConfig { return lidar.HDL64() }

// NewVehicle creates a vehicle with the given LiDAR and pose; the seed
// fixes sensing noise for reproducibility.
func NewVehicle(id string, cfg LiDARConfig, state VehicleState, seed int64) *Vehicle {
	return core.NewVehicle(id, cfg, state, seed)
}

// NewScene returns an empty world with ground at z = 0.
func NewScene() *Scene { return scene.New() }

// KITTIScenarios returns the paper's four 64-beam road scenarios (Fig. 3).
func KITTIScenarios() []*Scenario { return scene.KITTIScenarios() }

// TJScenarios returns the paper's four 16-beam parking scenarios (Fig. 6).
func TJScenarios() []*Scenario { return scene.TJScenarios() }

// AllScenarios returns the full 19-case evaluation suite.
func AllScenarios() []*Scenario { return scene.AllScenarios() }

// Procedural fleet-scenario generation.
type (
	// ScenarioFamily names a generated scenario family (highway,
	// intersection, roundabout, parking, platoon).
	ScenarioFamily = scene.Family
	// GenParams parameterizes procedural scenario generation.
	GenParams = scene.GenParams
)

// ScenarioFamilies returns every generated scenario family.
func ScenarioFamilies() []ScenarioFamily { return scene.Families() }

// GenerateScenario synthesizes a deterministic N-vehicle fleet scenario:
// same params, byte-identical world. Fleet ≥ 2 wires one N-way case in
// which pose 0 fuses every other vehicle's transmitted cloud.
func GenerateScenario(p GenParams) (*Scenario, error) { return scene.Generate(p) }

// NewScenarioRunner prepares a scenario for case-by-case evaluation.
func NewScenarioRunner(sc *Scenario) *core.ScenarioRunner {
	return core.NewScenarioRunner(sc)
}

// DefaultDetectorConfig returns the SPOD configuration used in the
// paper's evaluation.
func DefaultDetectorConfig() DetectorConfig { return spod.DefaultConfig() }

// NewDetector builds a SPOD detector.
func NewDetector(cfg DetectorConfig) *Detector { return spod.New(cfg) }

// NewDetectorScratch returns an empty detector scratch for reuse-driven
// detection loops.
func NewDetectorScratch() *DetectorScratch { return spod.NewScratch() }

// Align maps a transmitter's cloud into the receiver's sensor frame
// using both vehicles' GPS/IMU states (Eqs. 1 and 3).
func Align(receiver, transmitter VehicleState, cloud *Cloud) *Cloud {
	return fusion.Align(receiver, transmitter, cloud)
}

// Merge unions a receiver's cloud with aligned transmitter clouds (Eq. 2).
func Merge(receiverCloud *Cloud, aligned ...*Cloud) *Cloud {
	return fusion.Merge(receiverCloud, aligned...)
}

// Fuse aligns and merges in one step.
func Fuse(receiver, transmitter VehicleState, receiverCloud, transmitterCloud *Cloud) *Cloud {
	return fusion.Fuse(receiver, transmitter, receiverCloud, transmitterCloud)
}

// Fleet-hub serving layer.
type (
	// FleetHub is the concurrent cooperative-perception server: vehicle
	// sessions publish frames, fusion requests get K-sender rounds
	// assembled under the DSRC scheduler budget.
	FleetHub = hub.Hub
	// FleetHubConfig parameterises a hub.
	FleetHubConfig = hub.Config
	// HubClient is one vehicle's session with a fleet hub.
	HubClient = hub.Client
	// HubRoundFrame is one sender's contribution to an assembled round.
	HubRoundFrame = hub.RoundFrame
)

// NewFleetHub creates a fleet hub; serve it with Serve.
func NewFleetHub(cfg FleetHubConfig) *FleetHub { return hub.New(cfg) }

// JoinFleetHub dials a hub and opens a vehicle session.
func JoinFleetHub(addr, id string, state VehicleState) (*HubClient, int, error) {
	return hub.Connect(addr, id, state)
}

// Dynamic-world engine: trajectories, streaming episodes and
// latency-compensated tracking.
type (
	// Motion moves a scenario body: constant velocity or waypoint path.
	Motion = scene.Motion
	// EpisodeOptions parameterises a multi-frame episode run.
	EpisodeOptions = core.EpisodeOptions
	// EpisodeFrame is one fused frame's outcome.
	EpisodeFrame = core.EpisodeFrame
	// EpisodeResult is a full episode with temporal track metrics.
	EpisodeResult = core.EpisodeResult
	// EpisodeLab caches captures across episode sweeps over one scenario.
	EpisodeLab = core.EpisodeLab
	// Tracker follows fused detections across frames (greedy-IoU
	// association + constant-velocity Kalman smoothing).
	Tracker = track.Tracker
	// TrackerConfig parameterises a Tracker.
	TrackerConfig = track.Config
	// Track is one tracked object.
	Track = track.Track
	// TemporalStats summarises an episode's tracking quality.
	TemporalStats = eval.TemporalStats
)

// RunEpisode plays a multi-frame episode over a (dynamic) scenario:
// per-frame sensing, scheduled DSRC broadcast, latency-compensated
// fusion and tracking.
func RunEpisode(sc *Scenario, opts EpisodeOptions) (*EpisodeResult, error) {
	return core.RunEpisode(sc, opts)
}

// NewEpisodeLab prepares a capture-caching episode runner for sweeps.
func NewEpisodeLab(sc *Scenario) *EpisodeLab { return core.NewEpisodeLab(sc) }

// NewTracker builds a detection tracker; zero config fields take
// defaults tuned for car-sized objects at cooperative frame rates.
func NewTracker(cfg TrackerConfig) *Tracker { return track.New(cfg) }

// GPS drift regimes of the Fig. 10 robustness experiment.
const (
	DriftNone     = fusion.DriftNone
	DriftBothAxes = fusion.DriftBothAxes
	DriftOneAxis  = fusion.DriftOneAxis
	DriftDouble   = fusion.DriftDouble
)

// MaxGPSDrift is the ≈10 cm positional error bound of integrated GPS/IMU.
const MaxGPSDrift = fusion.MaxGPSDrift

// Degraded-world models: seeded channel loss and localization drift.
type (
	// LossModel is a deterministic lossy-channel model: per-slot drops,
	// burst-loss episodes and bounded reordering, all drawn from hashed
	// (seed, round, slot) coordinates so outcomes are independent of
	// evaluation order and worker count. The zero value is lossless.
	LossModel = network.LossModel
	// LossyPlan is a broadcast plan after the loss model has passed
	// judgment on each slot.
	LossyPlan = network.LossyPlan
	// PoseError is one step of a localization-drift walk: the offset a
	// vehicle's reported pose carries off its true pose.
	PoseError = scene.PoseError
)

// DefaultLoss derives a full channel model (drops, bursts, reordering)
// from a single loss rate; Enabled() is false at rate 0.
func DefaultLoss(rate float64, seed int64) LossModel { return network.DefaultLoss(rate, seed) }

// DriftWalk precomputes a vehicle's seeded pose-error walk: frames
// bounded steps, positions clamped to the given bound in metres.
func DriftWalk(seed int64, bound float64, frames int) []PoseError {
	return scene.DriftWalk(seed, bound, frames)
}

// Pluggable fusion backends: raw point-cloud exchange (the paper's
// strategy) and feature-level F-Cooper exchange (sparse post-convolution
// planes, an order of magnitude fewer bytes, fused by element-wise max).
type (
	// FusionBackend is a pluggable cooperative-fusion strategy: how a
	// sender frame becomes wire bytes and how a receiver turns collected
	// payloads into a detector input.
	FusionBackend = fusion.Backend
	// SensorFrame is one vehicle's contribution to an exchange as a
	// backend sees it.
	SensorFrame = fusion.SensorFrame
	// FusionPayload is one encoded sender contribution on the wire.
	FusionPayload = fusion.Payload
	// FusedInput is a backend's fused product, ready for detection.
	FusedInput = fusion.FusedInput
	// RawBackend transmits quantized clouds and merges them (Cooper).
	RawBackend = fusion.RawBackend
	// FeatureBackend transmits sparse feature planes (F-Cooper).
	FeatureBackend = fusion.FeatureBackend
	// FeatureFrame is a detector's sparse post-convolution feature planes.
	FeatureFrame = spod.FeatureFrame
)

// FusionBackends lists the selectable fusion backend names.
func FusionBackends() []string { return fusion.Backends() }

// ParseFusionBackend resolves a backend name ("raw", "feature").
func ParseFusionBackend(name string) (FusionBackend, error) { return fusion.ParseBackend(name) }

// NewFeatureBackend returns the feature backend with the default
// transmit floor (columns unable to clear the proposal gate are dropped
// at the sender).
func NewFeatureBackend() FeatureBackend { return fusion.DefaultFeatureBackend() }

// DecodeFeatureFrame parses a CPF3 feature-frame payload.
func DecodeFeatureFrame(data []byte) (*FeatureFrame, error) { return spod.DecodeFeatureFrame(data) }

// IsFeaturePayload reports whether wire bytes carry a CPF3 feature frame
// rather than a quantized point cloud.
func IsFeaturePayload(data []byte) bool { return spod.IsFeaturePayload(data) }

// Observability: deterministic telemetry counters and the persistent
// episode store. Metric values derive from sim-time and byte counts only
// (wall-clock lives solely in the snapshot envelope), and the episode
// log carries no timestamps at all — identical runs produce identical
// snapshots and identical logs at any worker count.
type (
	// MetricsRegistry is a registry of named counters, gauges and
	// fixed-bucket histograms. A nil registry is the disabled registry:
	// its handles are no-ops, so hot paths instrument unconditionally.
	MetricsRegistry = telemetry.Registry
	// MetricsSnapshot is a point-in-time capture of a registry,
	// renderable as JSON or Prometheus text. MaskEnvelope strips the
	// wall-clock envelope for byte-exact diffing.
	MetricsSnapshot = telemetry.Snapshot
	// EpisodeHeader opens an episode log: what ran, under which knobs.
	EpisodeHeader = store.Header
	// EpisodeWriter appends typed records (frames, rounds, detections,
	// tracks) to an episode log; safe for concurrent producers.
	EpisodeWriter = store.EpisodeWriter
	// StoredEpisode is a fully parsed episode log.
	StoredEpisode = store.Episode
	// StoredDetections is one frame's fused detections as recorded.
	StoredDetections = store.Detections
	// EpisodeDir is a directory of named episode logs (the hub's
	// replay-over-HTTP source).
	EpisodeDir = store.Dir
	// EpisodeReplayStats summarises a replay verification: how many
	// stored rounds reproduced their recorded detections byte for byte.
	EpisodeReplayStats = store.ReplayStats
)

// NewMetrics returns an empty telemetry registry.
func NewMetrics() *MetricsRegistry { return telemetry.New() }

// CreateEpisodeLog creates an episode log file and writes its header.
func CreateEpisodeLog(path string, h EpisodeHeader) (*EpisodeWriter, error) {
	return store.CreateEpisode(path, h)
}

// NewEpisodeLog starts an episode log on an arbitrary writer.
func NewEpisodeLog(w io.Writer, h EpisodeHeader) (*EpisodeWriter, error) {
	return store.NewEpisodeWriter(w, h)
}

// ReadEpisodeLog parses a stored episode log from disk.
func ReadEpisodeLog(path string) (*StoredEpisode, error) { return store.ReadEpisodeFile(path) }

// ReplayEpisodeLog pushes a stored episode back through the live fusion
// path and verifies every round against its recorded detections.
func ReplayEpisodeLog(ep *StoredEpisode) ([]StoredDetections, EpisodeReplayStats, error) {
	return store.ReplayEpisode(ep)
}

// OpenEpisodeDir opens (creating if needed) a directory of episode logs.
func OpenEpisodeDir(path string) (*EpisodeDir, error) { return store.OpenDir(path) }

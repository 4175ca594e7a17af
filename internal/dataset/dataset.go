// Package dataset generates and stores the synthetic datasets standing in
// for the paper's KITTI and T&J data. A dataset is a directory of frames;
// each frame holds the raw sensor-frame point cloud in the KITTI Velodyne
// binary layout (consecutive float32 x, y, z, reflectance), the vehicle's
// GPS/IMU state, and the ground-truth car boxes — everything needed to
// re-run cooperative perception offline.
//
// Layout:
//
//	<root>/<scenario>/
//	    meta.json              dataset-level metadata
//	    velodyne/000000.bin    raw float32 clouds, one per pose
//	    labels/000000.json     per-frame pose + ground-truth boxes
package dataset

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"cooper/internal/lidar"
	"cooper/internal/pointcloud"
	"cooper/internal/scene"
)

// Meta describes a stored scenario dataset.
type Meta struct {
	Name       string   `json:"name"`
	Dataset    string   `json:"dataset"`
	LiDARName  string   `json:"lidar"`
	BeamCount  int      `json:"beam_count"`
	FrameCount int      `json:"frame_count"`
	PoseLabels []string `json:"pose_labels"`
	Seed       int64    `json:"seed"`
	// Timesteps and Hz describe an episode render: FrameCount =
	// Timesteps × poses, files numbered timestep-major. A static render
	// has Timesteps 1 and Hz 0.
	Timesteps int     `json:"timesteps,omitempty"`
	Hz        float64 `json:"hz,omitempty"`
}

// GroundTruthBox is a labelled car in world coordinates.
type GroundTruthBox struct {
	ID     int     `json:"id"`
	X      float64 `json:"x"`
	Y      float64 `json:"y"`
	Z      float64 `json:"z"`
	Length float64 `json:"length"`
	Width  float64 `json:"width"`
	Height float64 `json:"height"`
	Yaw    float64 `json:"yaw"`
}

// Label is the per-frame sidecar: the capturing vehicle's state and the
// scene ground truth — at the frame's capture time for episode renders,
// so every timestep carries the world as the sensor saw it.
type Label struct {
	PoseLabel   string           `json:"pose_label"`
	GPS         [3]float64       `json:"gps"`
	Yaw         float64          `json:"yaw"`
	Pitch       float64          `json:"pitch"`
	Roll        float64          `json:"roll"`
	MountHeight float64          `json:"mount_height"`
	Cars        []GroundTruthBox `json:"cars"`
	// Timestep and TimeMS place the frame on the episode timeline (both
	// zero in a static render).
	Timestep int   `json:"timestep"`
	TimeMS   int64 `json:"time_ms"`
}

// GenerateEpisode renders a dynamic scenario as an episode: timesteps
// samples of the moving world at the given frame rate, one file per
// (timestep, pose), numbered timestep-major — timestep t's poses occupy
// indices t×P … t×P+P-1. Each label carries the frame's timeline
// position and the ground truth as it stood at capture time. A single
// timestep reproduces the static render exactly.
func GenerateEpisode(sc *scene.Scenario, root string, timesteps int, hz float64) error {
	if timesteps < 1 {
		return fmt.Errorf("dataset: episode needs at least 1 timestep, got %d", timesteps)
	}
	if timesteps > 1 && hz <= 0 {
		return fmt.Errorf("dataset: multi-timestep episode needs a positive frame rate, got %g", hz)
	}
	if timesteps == 1 {
		hz = 0 // a single timestep is a static render: no frame rate
	}
	dir := filepath.Join(root, sanitize(sc.Name))
	for _, sub := range []string{"velodyne", "labels"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return fmt.Errorf("dataset: creating %s: %w", sub, err)
		}
	}

	scanner := lidar.NewScanner(sc.LiDAR, sc.Seed)
	idx := 0
	for ts := 0; ts < timesteps; ts++ {
		var at time.Duration
		if hz > 0 {
			at = time.Duration(float64(ts) / hz * float64(time.Second))
		}
		snap := sc.At(at)
		cars := make([]GroundTruthBox, 0, len(snap.Scene.Cars()))
		for _, car := range snap.Scene.Cars() {
			cars = append(cars, GroundTruthBox{
				ID: car.ID,
				X:  car.Box.Center.X, Y: car.Box.Center.Y, Z: car.Box.Center.Z,
				Length: car.Box.Length, Width: car.Box.Width, Height: car.Box.Height,
				Yaw: car.Box.Yaw,
			})
		}
		for i, pose := range snap.Poses {
			scan := scanner.ScanFrom(pose, snap.Scene.Targets(), snap.Scene.GroundZ)
			if err := writeVelodyneBin(filepath.Join(dir, "velodyne", frameName(idx, ".bin")), scan.Cloud); err != nil {
				return err
			}
			label := Label{
				PoseLabel:   snap.PoseLabels[i],
				GPS:         [3]float64{pose.T.X, pose.T.Y, pose.T.Z},
				Yaw:         pose.R.Yaw(),
				Pitch:       pose.R.Pitch(),
				Roll:        pose.R.Roll(),
				MountHeight: snap.LiDAR.MountHeight,
				Cars:        cars,
				Timestep:    ts,
				TimeMS:      at.Milliseconds(),
			}
			if err := writeJSON(filepath.Join(dir, "labels", frameName(idx, ".json")), label); err != nil {
				return err
			}
			idx++
		}
	}
	meta := Meta{
		Name:       sc.Name,
		Dataset:    string(sc.Dataset),
		LiDARName:  sc.LiDAR.Name,
		BeamCount:  sc.LiDAR.BeamCount(),
		FrameCount: idx,
		PoseLabels: sc.PoseLabels,
		Seed:       sc.Seed,
		Timesteps:  timesteps,
		Hz:         hz,
	}
	return writeJSON(filepath.Join(dir, "meta.json"), meta)
}

func frameName(i int, ext string) string { return fmt.Sprintf("%06d%s", i, ext) }

func sanitize(name string) string {
	out := make([]rune, 0, len(name))
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			out = append(out, r)
		case r == ' ':
			out = append(out, '_')
		}
	}
	return string(out)
}

// writeVelodyneBin stores a cloud as consecutive float32 quads — the
// KITTI Velodyne layout.
func writeVelodyneBin(path string, c *pointcloud.Cloud) error {
	buf := make([]byte, 0, c.Len()*16)
	for i := 0; i < c.Len(); i++ {
		p := c.At(i)
		for _, v := range []float64{p.X, p.Y, p.Z, p.Reflectance} {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(float32(v)))
		}
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return fmt.Errorf("dataset: writing %s: %w", path, err)
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("dataset: encoding %s: %w", path, err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("dataset: writing %s: %w", path, err)
	}
	return nil
}

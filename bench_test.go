// Benchmarks regenerating every figure of the paper's evaluation plus the
// ablations called out in DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// The AllFigures and Suite benchmarks measure the full experiments (scene
// build, sensing, fusion, detection, evaluation); the SPOD and substrate
// benchmarks isolate pipeline stages.
package cooper_test

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"testing"
	"time"

	"cooper"
	"cooper/internal/core"
	"cooper/internal/experiments"
	"cooper/internal/fusion"
	"cooper/internal/geom"
	"cooper/internal/hub"
	"cooper/internal/lidar"
	"cooper/internal/network"
	"cooper/internal/pointcloud"
	"cooper/internal/roi"
	"cooper/internal/scene"
	"cooper/internal/spod"
	"cooper/internal/store"
)

// --- Parallel evaluation engine: sequential vs parallel full suite ---
//
// The pair below is the headline perf-trajectory number for the parallel
// engine: the full 8-scenario, 19-case evaluation run case-by-case on one
// goroutine versus fanned out across the CPUs. Outputs are identical
// (see internal/core TestRunAllParallelMatchesSequential); only
// wall-clock time may differ.

func benchSuite(b *testing.B, workers int) {
	b.Helper()
	scenarios := scene.AllScenarios()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sc := range scenarios {
			runner := cooper.NewScenarioRunner(sc).SetWorkers(workers)
			if _, err := runner.RunAll(cooper.RunOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkSuiteSequential(b *testing.B) { benchSuite(b, 1) }
func BenchmarkSuiteParallel(b *testing.B)   { benchSuite(b, 0) }

// The figure-level pair additionally exercises the concurrent generator
// fan-out and the suite's shared caches.

func BenchmarkAllFiguresSequential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		suite := experiments.NewSuite().SetWorkers(1)
		for _, f := range experiments.Figures() {
			if err := experiments.Run(suite, f, io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkAllFiguresParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.NewSuite().SetWorkers(0).RunAllFigures(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fleet-scale N-way fusion (generated scenarios) ---
//
// The Fleet benchmarks are the perf-trajectory numbers for the fleet
// pipeline: generating a procedural world, sensing N poses, fusing K
// transmitted clouds into one receiver frame and evaluating the case.
// CI's bench-smoke step runs these once and records BENCH_fleet.json.

func benchFleet(b *testing.B, fam cooper.ScenarioFamily, fleet int) {
	b.Helper()
	sc, err := cooper.GenerateScenario(cooper.GenParams{Family: fam, Fleet: fleet, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runner := cooper.NewScenarioRunner(sc)
		if _, err := runner.RunAll(cooper.RunOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFleetHighway2(b *testing.B) { benchFleet(b, "highway", 2) }
func BenchmarkFleetHighway6(b *testing.B) { benchFleet(b, "highway", 6) }
func BenchmarkFleetPlatoon8(b *testing.B) { benchFleet(b, "platoon", 8) }
func BenchmarkFleetParking8(b *testing.B) { benchFleet(b, "parking", 8) }
func BenchmarkFleetSweepFigure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		suite := experiments.NewSuite()
		if err := experiments.Run(suite, 14, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fleet hub serving layer ---
//
// The Hub benchmarks are the perf-trajectory numbers for the serving
// subsystem: assembling K-sender fusion rounds from the latest-frame
// cache, with and without bandwidth-capped payload refitting, and the
// full TCP request/reply round trip. CI's hub bench-smoke step runs
// these once and records BENCH_hub.json.

// hubFleet publishes n synthetic vehicle frames (~pts points each,
// spread all around the sensor so the ROI ladder genuinely shrinks them)
// into a fresh hub.
func hubFleet(b *testing.B, n, pts int) *hub.Hub {
	b.Helper()
	h := hub.New(hub.Config{})
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		cloud := pointcloud.New(pts)
		for p := 0; p < pts; p++ {
			az := rng.Float64()*2*math.Pi - math.Pi
			r := 2 + rng.Float64()*40
			cloud.AppendXYZR(r*math.Cos(az), r*math.Sin(az), rng.Float64()*2, rng.Float64())
		}
		payload, err := pointcloud.EncodeQuantized(cloud)
		if err != nil {
			b.Fatal(err)
		}
		st := fusion.VehicleState{GPS: geom.V3(float64(12*i), 0, 0), MountHeight: 1.7}
		if _, err := h.Publish(fmt.Sprintf("v%d", i+1), st, payload, 1); err != nil {
			b.Fatal(err)
		}
	}
	return h
}

func benchHubAssemble(b *testing.B, vehicles int, budgetBps uint64) {
	h := hubFleet(b, vehicles, 20_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.AssembleRound("rx", geom.V3(0, 0, 0), hub.RoundSpec{BudgetBps: budgetBps}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHubAssemble4Uncapped(b *testing.B)  { benchHubAssemble(b, 4, 0) }
func BenchmarkHubAssemble8Uncapped(b *testing.B)  { benchHubAssemble(b, 8, 0) }
func BenchmarkHubAssemble8Budgeted(b *testing.B)  { benchHubAssemble(b, 8, 2_000_000) }
func BenchmarkHubAssemble16Budgeted(b *testing.B) { benchHubAssemble(b, 16, 2_000_000) }

// BenchmarkHubSessionRound measures the full serving path over loopback
// TCP: fusion request in, K scheduled frames out.
func BenchmarkHubSessionRound(b *testing.B) {
	h := hubFleet(b, 8, 20_000)
	l, err := network.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go h.Serve(l)
	defer h.Close()
	st := fusion.VehicleState{GPS: geom.V3(1, 0, 0), MountHeight: 1.7}
	cl, _, err := hub.Connect(l.Addr(), "rx", st)
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frames, err := cl.RequestRound(st, 0, 0)
		if err != nil {
			b.Fatal(err)
		}
		if len(frames) != 8 {
			b.Fatalf("round carried %d frames, want 8", len(frames))
		}
	}
}

// --- Fusion backends: sender encode and receiver fuse, raw vs feature ---
//
// The Feature benchmarks are the perf-trajectory numbers for the
// pluggable-backend layer: the sender-side encode of one frame (with the
// resulting wire size reported as bytes/frame, the Fig. 16 volume axis)
// and the receiver-side fuse + detect round over one collected payload,
// for both backends on the same sensed scenario. CI's feature bench-smoke
// step runs these once and records BENCH_feature.json.

// backendFrames senses a two-vehicle generated intersection and lifts
// both views into backend sensor frames.
func backendFrames(b *testing.B) (rx, tx fusion.SensorFrame) {
	b.Helper()
	sc, err := cooper.GenerateScenario(cooper.GenParams{Family: "intersection", Fleet: 2, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	runner := cooper.NewScenarioRunner(sc)
	vi, vj := runner.Vehicle(0), runner.Vehicle(1)
	ci := vi.Sense(sc.Scene.Targets(), sc.Scene.GroundZ)
	cj := vj.Sense(sc.Scene.Targets(), sc.Scene.GroundZ)
	return fusion.SensorFrame{State: vi.State(), Cloud: ci},
		fusion.SensorFrame{State: vj.State(), Cloud: cj}
}

func benchBackendEncode(b *testing.B, backend fusion.Backend) {
	b.Helper()
	_, tx := backendFrames(b)
	scratch := spod.NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	wire := 0
	for i := 0; i < b.N; i++ {
		p, err := backend.Encode(tx, scratch)
		if err != nil {
			b.Fatal(err)
		}
		wire = len(p.Data)
	}
	b.ReportMetric(float64(wire), "bytes/frame")
}

func benchBackendFuse(b *testing.B, backend fusion.Backend) {
	b.Helper()
	rx, tx := backendFrames(b)
	payload, err := backend.Encode(tx, nil)
	if err != nil {
		b.Fatal(err)
	}
	scratch := spod.NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in, err := backend.Fuse(rx, []fusion.Payload{payload})
		if err != nil {
			b.Fatal(err)
		}
		if dets, _ := in.Detect(spod.DefaultConfig(), scratch); len(dets) == 0 {
			b.Fatal("fused round produced no detections")
		}
	}
}

func BenchmarkFeatureBackendEncode(b *testing.B) {
	benchBackendEncode(b, fusion.DefaultFeatureBackend())
}
func BenchmarkFeatureRawEncodeBaseline(b *testing.B) { benchBackendEncode(b, fusion.RawBackend{}) }
func BenchmarkFeatureBackendFuseDetect(b *testing.B) {
	benchBackendFuse(b, fusion.DefaultFeatureBackend())
}
func BenchmarkFeatureRawFuseDetectBaseline(b *testing.B) { benchBackendFuse(b, fusion.RawBackend{}) }

// BenchmarkRawFuseICP3 measures the in-loop ICP fuse on its own: one
// receiver and three senders of a canyon fleet, each sender's GPS state
// drifted by 0.2 m per axis, through RawBackend{UseICP: true}.Fuse —
// decode, align, ICP-refine against the receiver and merge.
func BenchmarkRawFuseICP3(b *testing.B) {
	sc, err := cooper.GenerateScenario(cooper.GenParams{Family: "canyon", Fleet: 4, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	runner := cooper.NewScenarioRunner(sc)
	frame := func(i int) fusion.SensorFrame {
		v := runner.Vehicle(i)
		return fusion.SensorFrame{State: v.State(), Cloud: v.Sense(sc.Scene.Targets(), sc.Scene.GroundZ)}
	}
	rx := frame(0)
	rng := rand.New(rand.NewSource(1))
	var payloads []fusion.Payload
	for i := 1; i < 4; i++ {
		tx := frame(i)
		tx.State = fusion.ApplyDrift(tx.State, fusion.DriftDouble, rng)
		p, err := fusion.RawBackend{}.Encode(tx, nil)
		if err != nil {
			b.Fatal(err)
		}
		payloads = append(payloads, p)
	}
	backend := fusion.RawBackend{UseICP: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in, err := backend.Fuse(rx, payloads)
		if err != nil {
			b.Fatal(err)
		}
		if len(in.ICPCorrections) != len(payloads) {
			b.Fatalf("%d ICP corrections for %d payloads", len(in.ICPCorrections), len(payloads))
		}
	}
}

// --- Dynamic-world engine: tracking + compensation hot path ---
//
// The Track benchmarks are the perf-trajectory numbers for the time
// axis: per-frame track association/smoothing, sender-side motion
// compensation of a stale frame, and a full streamed episode (sense →
// broadcast → compensate → fuse → detect → track). CI's track
// bench-smoke step runs these once and records BENCH_track.json.

func BenchmarkTrackStepFleet(b *testing.B) {
	// A 12-object stream drifting at mixed velocities, stepped at 10 Hz.
	tr := cooper.NewTracker(cooper.TrackerConfig{})
	mkFrame := func(k int) []cooper.Detection {
		dets := make([]cooper.Detection, 0, 12)
		for o := 0; o < 12; o++ {
			x := float64(o%4)*15 + float64(k)*0.1*float64(o%3)*4
			y := float64(o/4)*8 - 8
			dets = append(dets, cooper.Detection{
				Box:   geom.NewBox(geom.V3(x, y, 0.78), 3.9, 1.6, 1.56, 0),
				Score: 0.9,
			})
		}
		return dets
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Step(time.Duration(i)*100*time.Millisecond, mkFrame(i))
	}
}

func BenchmarkTrackCompensateScan(b *testing.B) {
	sc, err := cooper.GenerateScenario(cooper.GenParams{Family: "platoon", Fleet: 4, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	scanner := lidar.NewScanner(sc.LiDAR, sc.Seed)
	scan := scanner.ScanFrom(sc.Poses[0], sc.Scene.Targets(), sc.Scene.GroundZ)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.CompensateScan(sc, scan, sc.Poses[0], 0, 500*time.Millisecond)
	}
}

func BenchmarkTrackEpisodePlatoon(b *testing.B) {
	sc, err := cooper.GenerateScenario(cooper.GenParams{Family: "platoon", Fleet: 3, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	lab := cooper.NewEpisodeLab(sc) // captures amortise across iterations
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := lab.Run(cooper.EpisodeOptions{
			Frames: 4, Hz: 2, Delay: 250 * time.Millisecond, Compensate: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Frames) != 4 {
			b.Fatalf("episode ran %d frames, want 4", len(res.Frames))
		}
	}
}

// --- Degraded-world engine: lossy-channel fallback hot path ---
//
// The Loss benchmarks are the perf-trajectory numbers for the degraded-
// world path: judging a broadcast round through the seeded channel model
// and playing a fused episode whose rounds fall back to each sender's
// newest delivered frame. Each episode benchmark also reports how much
// cooperative recall the loss rate costs against the lossless run
// (recall-delta-pp; 0 at rate 0 by construction). CI's loss bench-smoke
// step runs these once and records BENCH_loss.json.

func benchLossEpisode(b *testing.B, rate float64) {
	b.Helper()
	sc, err := cooper.GenerateScenario(cooper.GenParams{Family: "intersection", Fleet: 3, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	lab := cooper.NewEpisodeLab(sc) // captures amortise across iterations
	clean, err := lab.Run(cooper.EpisodeOptions{Frames: 4, Hz: 2, Compensate: true})
	if err != nil {
		b.Fatal(err)
	}
	opts := cooper.EpisodeOptions{Frames: 4, Hz: 2, Compensate: true}
	if rate > 0 {
		opts.Loss = cooper.DefaultLoss(rate, 1)
	}
	var res *cooper.EpisodeResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res, err = lab.Run(opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*(clean.MeanCoopRecall()-res.MeanCoopRecall()), "recall-delta-pp")
}

func BenchmarkLossEpisodeClean(b *testing.B) { benchLossEpisode(b, 0) }
func BenchmarkLossEpisode5pct(b *testing.B)  { benchLossEpisode(b, 0.05) }
func BenchmarkLossEpisode20pct(b *testing.B) { benchLossEpisode(b, 0.2) }

// BenchmarkLossModelRound isolates the channel model itself: judging
// every slot of a 4-sender broadcast plan (drop, burst, reorder draws)
// must stay O(slots) with only the verdict slices allocated.
func BenchmarkLossModelRound(b *testing.B) {
	model := network.DefaultLoss(0.3, 7)
	plan := network.DefaultScheduler().Plan([]int{60_000, 55_000, 52_000, 48_000})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.Round(int64(i), plan)
	}
}

// --- Fig. 9 isolation: the detector alone on single vs merged clouds ---

func scanPair(sc *scene.Scenario) (*pointcloud.Cloud, *pointcloud.Cloud) {
	runner := cooper.NewScenarioRunner(sc)
	vi := runner.Vehicle(0)
	vj := runner.Vehicle(1)
	ci := vi.Sense(sc.Scene.Targets(), sc.Scene.GroundZ)
	cj := vj.Sense(sc.Scene.Targets(), sc.Scene.GroundZ)
	merged := fusion.Fuse(vi.State(), vj.State(), ci, cj)
	return ci, merged
}

func BenchmarkSPODSingleShot16Beam(b *testing.B) {
	single, _ := scanPair(scene.TJScenarios()[0])
	det := spod.NewDefault()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.Detect(single, nil, nil)
	}
}

func BenchmarkSPODCooperative16Beam(b *testing.B) {
	_, merged := scanPair(scene.TJScenarios()[0])
	det := spod.New(spod.CoopConfig(spod.DefaultConfig(), 15))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.Detect(merged, nil, nil)
	}
}

func BenchmarkSPODSingleShot64Beam(b *testing.B) {
	single, _ := scanPair(scene.KITTIScenarios()[0])
	cfg := spod.DefaultConfig()
	cfg.VerticalFOVTop = lidar.HDL64().MaxElevation()
	det := spod.New(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.Detect(single, nil, nil)
	}
}

func BenchmarkSPODCooperative64Beam(b *testing.B) {
	_, merged := scanPair(scene.KITTIScenarios()[0])
	cfg := spod.DefaultConfig()
	cfg.VerticalFOVTop = lidar.HDL64().MaxElevation()
	det := spod.New(spod.CoopConfig(cfg, 15))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.Detect(merged, nil, nil)
	}
}

// --- SPOD on a sparse 16-beam frame ---

func BenchmarkDetectorComparisonSPOD(b *testing.B) {
	single, _ := scanPair(scene.TJScenarios()[1])
	det := spod.NewDefault()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.Detect(single, nil, nil)
	}
}

// --- Ablation: voxel size sweep ---

func benchVoxelSize(b *testing.B, size float64) {
	single, _ := scanPair(scene.TJScenarios()[0])
	cfg := spod.DefaultConfig()
	cfg.VoxelSizeXY = size
	det := spod.New(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.Detect(single, nil, nil)
	}
}

func BenchmarkVoxelSize10cm(b *testing.B) { benchVoxelSize(b, 0.10) }
func BenchmarkVoxelSize20cm(b *testing.B) { benchVoxelSize(b, 0.20) }
func BenchmarkVoxelSize40cm(b *testing.B) { benchVoxelSize(b, 0.40) }

// --- Ablation: ROI extraction vs full-frame payloads ---

func BenchmarkROIExtractionFullFrame(b *testing.B) {
	single, _ := scanPair(scene.TJScenarios()[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := roi.PayloadBytes(single, roi.CategoryFullFrame); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkROIExtractionFrontFOV(b *testing.B) {
	single, _ := scanPair(scene.TJScenarios()[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := roi.PayloadBytes(single, roi.CategoryFrontFOV); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Substrate micro-benchmarks ---

func BenchmarkWireCodecQuantized(b *testing.B) {
	single, _ := scanPair(scene.TJScenarios()[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc, err := pointcloud.EncodeQuantized(single)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := pointcloud.Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireCodecRaw(b *testing.B) {
	single, _ := scanPair(scene.TJScenarios()[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pointcloud.Decode(pointcloud.EncodeRaw(single)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLiDARScan16Beam(b *testing.B) {
	sc := scene.TJScenarios()[0]
	scanner := lidar.NewScanner(sc.LiDAR, 1)
	targets := sc.Scene.Targets()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scanner.ScanFrom(sc.Poses[0], targets, sc.Scene.GroundZ)
	}
}

func BenchmarkLiDARScan64Beam(b *testing.B) {
	sc := scene.KITTIScenarios()[0]
	scanner := lidar.NewScanner(sc.LiDAR, 1)
	targets := sc.Scene.Targets()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scanner.ScanFrom(sc.Poses[0], targets, sc.Scene.GroundZ)
	}
}

func BenchmarkAlignAndMerge(b *testing.B) {
	sc := scene.TJScenarios()[0]
	runner := cooper.NewScenarioRunner(sc)
	vi, vj := runner.Vehicle(0), runner.Vehicle(1)
	ci := vi.Sense(sc.Scene.Targets(), sc.Scene.GroundZ)
	cj := vj.Sense(sc.Scene.Targets(), sc.Scene.GroundZ)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fusion.Fuse(vi.State(), vj.State(), ci, cj)
	}
}

func BenchmarkDSRCModel(b *testing.B) {
	ch := network.DefaultDSRC()
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.TransmitTime(rng.Intn(1 << 20))
	}
}

func BenchmarkIoUBEV(b *testing.B) {
	b1 := geom.NewBox(geom.V3(0, 0, 0.78), 3.9, 1.6, 1.56, 0.3)
	b2 := geom.NewBox(geom.V3(1, 0.5, 0.78), 3.9, 1.6, 1.56, 0.9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		geom.IoUBEV(b1, b2)
	}
}

// --- Episode store + telemetry (observability layer) ---
//
// The Store benchmarks are the observability-layer numbers: append and
// parse throughput for the episode log, replay back through the live
// fusion path, and — the acceptance bar — what instrumenting an episode
// with telemetry plus a store sink costs against the bare run (<5% of
// episode throughput). CI's store bench-smoke step runs these once and
// records BENCH_store.json.

// storeBenchLog records one platoon episode into memory and returns the
// raw log bytes; the read/replay benchmarks parse and re-fuse it.
func storeBenchLog(b *testing.B) []byte {
	b.Helper()
	sc, err := cooper.GenerateScenario(cooper.GenParams{Family: "platoon", Fleet: 3, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	ew, err := cooper.NewEpisodeLog(&buf, cooper.EpisodeHeader{
		Label: "bench", Scenario: sc.Name, Seed: sc.Seed, Frames: 4, Hz: 4, Backend: "raw",
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := cooper.NewEpisodeLab(sc).Run(cooper.EpisodeOptions{Frames: 4, Hz: 4, Sink: ew}); err != nil {
		b.Fatal(err)
	}
	if err := ew.Close(); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkStoreAppendRound measures raw log append throughput: one
// representative cooperative round (lossless own cloud + two quantized
// sender payloads) written per iteration, CRC and framing included.
func BenchmarkStoreAppendRound(b *testing.B) {
	own, remote := scanPair(scene.TJScenarios()[0])
	payload, err := pointcloud.EncodeQuantized(remote)
	if err != nil {
		b.Fatal(err)
	}
	cfg := spod.DefaultConfig()
	round := store.Round{
		Frame: 1, Receiver: "v1", Own: own,
		FOVTop: cfg.VerticalFOVTop, MaxRange: cfg.MaxDetectionRange,
		LatencyUS: 120_000, PayloadBytes: 2 * int64(len(payload)),
		Payloads: []store.RoundPayload{
			{Sender: "v2", Data: payload},
			{Sender: "v3", Data: payload},
		},
	}
	ew, err := cooper.NewEpisodeLog(io.Discard, cooper.EpisodeHeader{Label: "bench"})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(store.EncodeRound(round))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round.Frame = i
		if err := ew.WriteRound(round); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreReadEpisode parses a full recorded episode (header, CRC
// checks, record decode) from memory.
func BenchmarkStoreReadEpisode(b *testing.B) {
	raw := storeBenchLog(b)
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ep, err := store.ReadEpisode(bytes.NewReader(raw))
		if err != nil {
			b.Fatal(err)
		}
		if !ep.Complete {
			b.Fatal("episode truncated")
		}
	}
}

// BenchmarkStoreReplayEpisode re-fuses and re-detects every stored round
// and verifies the recorded detections byte for byte — the full
// regression-replay path behind `coopersim -replay` and the hub's
// /episodes endpoint.
func BenchmarkStoreReplayEpisode(b *testing.B) {
	ep, err := store.ReadEpisode(bytes.NewReader(storeBenchLog(b)))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, stats, err := cooper.ReplayEpisodeLog(ep)
		if err != nil {
			b.Fatal(err)
		}
		if !stats.Identical() {
			b.Fatalf("replay diverged: %v", stats)
		}
	}
}

// benchStoreEpisode plays the same episode bare or fully instrumented
// (telemetry registry + store sink); comparing the pair's ns/op bounds
// the observability overhead.
func benchStoreEpisode(b *testing.B, instrumented bool) {
	b.Helper()
	sc, err := cooper.GenerateScenario(cooper.GenParams{Family: "platoon", Fleet: 3, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	lab := cooper.NewEpisodeLab(sc) // captures amortise across iterations
	opts := cooper.EpisodeOptions{Frames: 4, Hz: 2}
	if _, err := lab.Run(opts); err != nil { // warm the capture cache
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if instrumented {
			opts.Metrics = cooper.NewMetrics()
			ew, err := cooper.NewEpisodeLog(io.Discard, cooper.EpisodeHeader{Label: "bench"})
			if err != nil {
				b.Fatal(err)
			}
			opts.Sink = ew
		}
		if _, err := lab.Run(opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStoreEpisodeBare(b *testing.B)         { benchStoreEpisode(b, false) }
func BenchmarkStoreEpisodeInstrumented(b *testing.B) { benchStoreEpisode(b, true) }

// BenchmarkStoreSnapshotJSON isolates the telemetry capture itself:
// snapshotting a hub-sized registry and rendering it as JSON.
func BenchmarkStoreSnapshotJSON(b *testing.B) {
	reg := cooper.NewMetrics()
	for i := 0; i < 12; i++ {
		reg.Counter(fmt.Sprintf("bench_counter_%d_total", i)).Add(int64(i) * 17)
	}
	reg.Gauge("bench_vehicles_cached").Set(32)
	h := reg.Histogram("bench_latency_us", 1000, 10_000, 100_000, 1_000_000)
	for i := 0; i < 4096; i++ {
		h.Observe(int64(i) * 997)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := reg.Snapshot().WriteJSON(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

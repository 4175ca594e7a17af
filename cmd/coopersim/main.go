// Command coopersim runs one of the paper's scenarios — or a generated
// fleet scenario — end to end and prints a single-shot vs Cooper report
// with detection precision/recall and the DSRC cost of the exchange.
//
//	coopersim -list
//	coopersim -scenario "T-junction"
//	coopersim -scenario "TJ-Scenario 2" -drift 2x -icp
//	coopersim -scenario highway -fleet 6 -seed 1
//	coopersim -scenario highway -fleet 6 -frames 20 -hz 10
//
// Generated scenarios (-scenario highway|intersection|roundabout|
// parking|platoon) synthesize a world with -fleet cooperating vehicles
// from -seed; pose v1 fuses every other vehicle's transmitted cloud in
// one N-way case.
//
// With -frames > 1 the scenario becomes a dynamic episode: vehicles
// drive their generated trajectories, sense at -hz, broadcast every
// frame on the modelled DSRC channel (stale by transmission time plus
// -delay), and the receiver fuses the newest delivered round — motion-
// compensated unless -compensate=false — while a constant-velocity
// tracker follows the fused detections. The report adds per-frame fused
// precision/recall and the episode's track-continuity metrics.
//
// Episodes can be degraded: -loss R drops, bursts and reorders
// broadcast slots at rate R (seeded from -seed, deterministic), falling
// back to each sender's newest delivered frame; in episodes -drift is a
// bound in metres for a seeded per-vehicle pose-error walk on every
// reported state, and -icp turns on in-loop ICP alignment correction in
// the raw fusion stage:
//
//	coopersim -scenario intersection -fleet 3 -frames 10 -hz 2 -loss 0.3 -drift 1.0 -icp
//
// Episodes can be persisted and audited: -store FILE appends every
// broadcast, fusion round, detection set and track state to a
// replayable binary log, and -replay FILE pushes a stored log back
// through the live fusion path, verifying that every round reproduces
// its recorded detections byte for byte (a divergence exits nonzero):
//
//	coopersim -scenario platoon -fleet 3 -frames 10 -compensate=false -store run.ceplog
//	coopersim -replay run.ceplog
//
// Output is deterministic for a given seed at any -workers value;
// wall-clock stage times are printed only with -times.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"cooper/internal/core"
	"cooper/internal/eval"
	"cooper/internal/fusion"
	"cooper/internal/network"
	"cooper/internal/scene"
	"cooper/internal/store"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "coopersim:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("scenario", "T-junction", "scenario name or generated family (see -list)")
	list := flag.Bool("list", false, "list scenarios and generated families")
	fleet := flag.Int("fleet", 4, "fleet size for generated families")
	seed := flag.Int64("seed", 1, "generation + sensing seed for generated families")
	traffic := flag.Int("traffic", 0, "ambient car count for generated families (0 = family default)")
	drift := flag.String("drift", "", "single-shot GPS drift mode (xy, one-axis, 2x); in episodes a pose-walk bound in metres")
	icp := flag.Bool("icp", false, "refine alignment with ICP (in episodes: in-loop correction, raw backend only)")
	loss := flag.Float64("loss", 0, "episode channel loss rate in [0,1): seeded slot drops, bursts and reordering")
	times := flag.Bool("times", false, "print wall-clock detection times (non-deterministic)")
	workers := flag.Int("workers", 0, "max goroutines for case evaluation (0 = one per CPU, 1 = sequential)")
	frames := flag.Int("frames", 1, "episode length; > 1 plays a dynamic multi-frame episode")
	hz := flag.Float64("hz", 10, "episode frame rate")
	delay := flag.Duration("delay", 0, "extra modelled channel delay per broadcast round (e.g. 250ms)")
	compensate := flag.Bool("compensate", true, "motion-compensate stale sender clouds in episodes")
	backendName := flag.String("backend", "raw", "fusion backend: raw (point clouds) or feature (F-Cooper sparse planes)")
	budget := flag.Int("budget", 0, "per-sender payload cap in bytes, fitted via the backend's ROI ladder (0 = uncapped)")
	wire := flag.String("wire", "v2", "episode broadcast wire: v2 (self-contained quantized frames) or v3 (CPD1 delta stream; needs -compensate=false)")
	storePath := flag.String("store", "", "episode: record a replayable log of every round to this file")
	replayPath := flag.String("replay", "", "replay a stored episode log through the live fusion path and verify it byte for byte")
	flag.Parse()

	if *replayPath != "" {
		return runReplay(*replayPath)
	}

	if *list {
		for _, sc := range scene.AllScenarios() {
			fmt.Printf("%-16s %-6s %d poses, %d cases, %d cars\n",
				sc.Name, sc.Dataset, len(sc.Poses), len(sc.Cases), len(sc.Scene.Cars()))
		}
		fmt.Printf("generated families (use with -fleet N -seed S):")
		for _, f := range scene.Families() {
			fmt.Printf(" %s", f)
		}
		fmt.Println()
		return nil
	}

	target, err := scene.Resolve(*name, *fleet, *seed, *traffic)
	if err != nil {
		if _, family := scene.ParseFamily(*name); !family {
			err = fmt.Errorf("%w (use -list)", err)
		}
		return err
	}

	backend, err := fusion.ParseBackend(*backendName)
	if err != nil {
		return err
	}

	if *frames > 1 {
		// In episodes -drift is a pose-walk bound in metres, not a mode.
		var driftM float64
		if *drift != "" {
			driftM, err = strconv.ParseFloat(*drift, 64)
			if err != nil || driftM < 0 {
				return fmt.Errorf("episodes take -drift as a pose-walk bound in metres (e.g. -drift 1.5), got %q", *drift)
			}
		}
		if *loss < 0 || *loss >= 1 {
			return fmt.Errorf("-loss %g out of range [0,1)", *loss)
		}
		return runEpisode(target, *frames, *hz, *delay, *compensate, *workers, backend, *wire,
			*loss, *seed, driftM, *icp, *storePath)
	}
	if *loss != 0 {
		return fmt.Errorf("-loss applies to episodes; add -frames N")
	}
	if *storePath != "" {
		return fmt.Errorf("-store records episodes; add -frames N")
	}
	if *wire != "" && *wire != "v2" {
		return fmt.Errorf("-wire %s applies to episodes; add -frames N", *wire)
	}

	opts := core.RunOptions{UseICP: *icp, DriftSeed: 7, Backend: backend, BudgetBytes: *budget}
	switch *drift {
	case "":
	case "xy":
		opts.Drift = fusion.DriftBothAxes
	case "one-axis":
		opts.Drift = fusion.DriftOneAxis
	case "2x":
		opts.Drift = fusion.DriftDouble
	default:
		return fmt.Errorf("unknown drift mode %q", *drift)
	}

	runner := core.NewScenarioRunner(target).SetWorkers(*workers)
	outcomes, err := runner.RunAll(opts)
	if err != nil {
		return err
	}

	fmt.Printf("%s (%s, %d-beam LiDAR, %d poses, %d ground-truth cars)\n",
		target.Name, target.Dataset, target.LiDAR.BeamCount(), len(target.Poses), len(target.Scene.Cars()))
	if opts.Drift != 0 {
		fmt.Printf("GPS drift mode: %v, ICP refinement: %v\n", opts.Drift, *icp)
	}
	if backend.Name() != "raw" || *budget > 0 {
		cap := "uncapped"
		if *budget > 0 {
			cap = fmt.Sprintf("%d B/sender", *budget)
		}
		fmt.Printf("fusion backend: %s, payload cap: %s\n", backend.Name(), cap)
	}
	if len(outcomes) == 0 {
		fmt.Println("no cooperative cases (single-vehicle fleet): nothing exchanged, zero channel load")
		return nil
	}
	sched := network.DefaultScheduler()
	for _, o := range outcomes {
		printCase(target, o, sched, *times)
	}
	return nil
}

// runEpisode plays and prints a dynamic multi-frame episode, optionally
// degraded by seeded channel loss and localization drift.
func runEpisode(target *scene.Scenario, frames int, hz float64, delay time.Duration, compensate bool, workers int, backend fusion.Backend, wire string, loss float64, seed int64, driftM float64, correct bool, storePath string) error {
	opts := core.EpisodeOptions{
		Frames: frames, Hz: hz, Delay: delay, Compensate: compensate, Workers: workers, Backend: backend,
		Wire: wire, Drift: driftM, Correct: correct,
	}
	if loss > 0 {
		opts.Loss = network.DefaultLoss(loss, seed)
	}
	var sink *store.EpisodeWriter
	if storePath != "" {
		var err error
		sink, err = store.CreateEpisode(storePath, store.Header{
			Label: "episode", Scenario: target.Name, Seed: seed,
			Frames: frames, Hz: hz, Backend: backend.Name(), UseICP: correct, Wire: wire,
		})
		if err != nil {
			return err
		}
		opts.Sink = sink
	}
	res, err := core.RunEpisode(target, opts)
	if err != nil {
		if sink != nil {
			sink.Close()
		}
		return err
	}
	if sink != nil {
		if err := sink.Close(); err != nil {
			return err
		}
		defer fmt.Printf("episode log: %s (%d records)\n", storePath, sink.Records())
	}

	comp := "on"
	if !compensate {
		comp = "off"
	}
	// The v2 header is pinned by downstream transcript diffs; v3 and the
	// degradation knobs each announce themselves with one extra clause.
	wireNote := ""
	if wire == "v3" {
		wireNote = ", wire v3"
	}
	if loss > 0 {
		wireNote += fmt.Sprintf(", loss %g (seed %d)", loss, seed)
	}
	if driftM > 0 {
		wireNote += fmt.Sprintf(", drift %gm", driftM)
	}
	if correct {
		wireNote += ", icp correction"
	}
	fmt.Printf("episode %s (%s, %d-beam LiDAR, %d poses, %d cars, %d moving): %d frames @ %g Hz, delay %v, compensation %s, backend %s%s\n",
		target.Name, target.Dataset, target.LiDAR.BeamCount(), len(target.Poses),
		len(target.Scene.Cars()), target.MovingObjects(), frames, hz, delay, comp, backend.Name(), wireNote)
	c := res.Case
	fmt.Printf("case %s: receiver %s fuses up to %d sender cloud(s) per round; rounds age by DSRC transmission + delay\n",
		c.Name, target.PoseLabels[c.Receiver()], len(c.Senders()))

	fmt.Printf("  %5s %6s %5s %8s %7s %6s %7s %7s %7s %7s\n",
		"frame", "t-ms", "round", "stale-ms", "lat-ms", "KB", "sing-P%", "sing-R%", "coop-P%", "coop-R%")
	for _, f := range res.Frames {
		round := "-"
		if f.SenderFrame >= 0 {
			round = fmt.Sprint(f.SenderFrame)
		}
		fmt.Printf("  %5d %6d %5s %8d %7.1f %6d %7.0f %7.0f %7.0f %7.0f\n",
			f.Index, f.At.Milliseconds(), round, f.Staleness.Milliseconds(),
			float64(f.RoundLatency.Microseconds())/1000, f.PayloadBytes/1024,
			100*f.Single.Precision(), 100*f.Single.Recall(),
			100*f.Coop.Precision(), 100*f.Coop.Recall())
	}

	if loss > 0 {
		fmt.Printf("channel: %d sender frame(s) lost in transit; each lossy round fused the newest delivered fallback\n", res.DroppedSlots)
	}
	t := res.Temporal
	fmt.Printf("tracks: %d live, %d distinct on truth; continuity %.1f%% (%d/%d truth-frames), ID switches %d, fragments %d\n",
		res.Tracks, t.Tracks, 100*t.Continuity(), t.MatchedFrames, t.TruthFrames, t.IDSwitches, t.Fragments)
	return nil
}

func printCase(target *scene.Scenario, o *core.CaseOutcome, sched network.Scheduler, times bool) {
	labelI := target.PoseLabels[o.Case.I]
	labelJ := target.PoseLabels[o.Case.J]
	senders := o.Case.Senders()
	senderLabels := make([]string, len(senders))
	for k, s := range senders {
		senderLabels[k] = target.PoseLabels[s]
	}

	fmt.Printf("\ncase %s (receiver %s fuses %d cloud(s) from %s, Δd = %.1f m)\n",
		o.Case.Name, labelI, len(senders), strings.Join(senderLabels, "+"), o.DeltaD)
	fmt.Printf("  %-6s %-7s %-7s %-7s %s\n", "car", labelI, labelJ, "Cooper", "band")
	for _, row := range o.Rows {
		fmt.Printf("  %-6d %-7s %-7s %-7s %s\n", row.CarID, row.I, row.J, row.Coop, row.Band)
	}

	ci, cj, cc := o.Column(0), o.Column(1), o.Column(2)
	fmt.Printf("  detected: %s=%d  %s=%d  Cooper=%d   accuracy: %.0f%% / %.0f%% / %.0f%%\n",
		labelI, eval.CountDetected(ci), labelJ, eval.CountDetected(cj), eval.CountDetected(cc),
		eval.Accuracy(ci), eval.Accuracy(cj), eval.Accuracy(cc))
	fmt.Printf("  precision: %s=%.0f%%  Cooper=%.0f%%   recall: %s=%.0f%%  Cooper=%.0f%%\n",
		labelI, 100*eval.Precision(eval.CountDetected(ci), o.FPI),
		100*eval.Precision(eval.CountDetected(cc), o.FPCoop),
		labelI, 100*eval.Recall(ci), 100*eval.Recall(cc))

	plan := sched.Plan(o.SenderPayloads)
	fmt.Printf("  DSRC: payload %d KB over %d frame(s), round latency %v, volume %.2f Mbit, load %.2f Mbit/s (util %.0f%%, fits: %v)\n",
		o.PayloadBytes/1024, plan.Senders(), plan.Completion().Round(1e5),
		float64(o.PayloadBytes)*8/1e6, plan.MbitPerSecond(), 100*plan.Utilization(), plan.Fits())
	if times {
		fmt.Printf("  detection time: %v / %v / %v\n",
			o.StatsI.Total.Round(1e6), o.StatsJ.Total.Round(1e6), o.StatsCoop.Total.Round(1e6))
	}
}

// runReplay decodes a stored episode log and pushes every round back
// through the live fusion path, verifying each against its recorded
// detections byte for byte. A divergence is an error: either the log is
// damaged or the fusion path changed since the episode was recorded.
func runReplay(path string) error {
	ep, err := store.ReadEpisodeFile(path)
	if err != nil {
		return err
	}
	h := ep.Header
	wire := h.Wire
	if wire == "" {
		wire = "v2"
	}
	complete := "complete"
	if !ep.Complete {
		complete = "truncated"
	}
	fmt.Printf("episode %q: scenario %q, seed %d, backend %s, wire %s — %d broadcast(s), %d round(s), %d detection set(s), %d track set(s), %s\n",
		h.Label, h.Scenario, h.Seed, h.Backend, wire,
		len(ep.Frames), len(ep.Rounds), len(ep.Detections), len(ep.Tracks), complete)
	_, stats, err := store.ReplayEpisode(ep)
	if err != nil {
		return err
	}
	fmt.Println(stats)
	if !stats.Identical() {
		return fmt.Errorf("replay diverged from the recorded detections")
	}
	fmt.Println("replay byte-identical: the stored episode reproduces exactly")
	return nil
}

package hub

import (
	"fmt"
	"io"
	"strings"
	"time"

	"cooper/internal/core"
	"cooper/internal/eval"
	"cooper/internal/fusion"
	"cooper/internal/network"
	"cooper/internal/parallel"
	"cooper/internal/pointcloud"
	"cooper/internal/roi"
	"cooper/internal/scene"
	"cooper/internal/spod"
	"cooper/internal/store"
	"cooper/internal/telemetry"
	"cooper/internal/track"
)

// SelfTestOptions parameterises a single-process hub exercise.
type SelfTestOptions struct {
	// Family is the generated scenario family (default platoon).
	Family string
	// Fleet is the number of in-process clients, 2..scene.MaxFleet.
	Fleet int
	// Seed fixes world generation and sensing noise.
	Seed int64
	// Traffic overrides the family's ambient car count when > 0.
	Traffic int
	// Workers bounds the client fan-out goroutines (< 1 = one per CPU).
	// The report is byte-identical at any worker count.
	Workers int
	// BandwidthMbps, when > 0, is each client's advertised sustained
	// cap in Mbit/s; the hub fits round payloads under it.
	BandwidthMbps float64
	// MaxSenders caps the senders each client requests (0 = everyone
	// else in the fleet).
	MaxSenders int
	// Frames > 1 streams an episode through the hub: the generated
	// world advances along its trajectories at Hz, every client
	// re-senses and republishes each frame (newest sequence wins in the
	// cache), and a per-client tracker follows the fused detections
	// across frames. Frames ≤ 1 is the original one-round exercise.
	Frames int
	// Hz is the streaming frame rate (default 2).
	Hz float64
	// Backend selects the fusion strategy the fleet exchanges with (nil
	// = raw clouds). The feature backend publishes CPF3 frames and
	// requests feature-level rounds.
	Backend fusion.Backend
	// Wire selects the publish path: "v2" (default) sends full quantized
	// frames, "v3" streams CPD1 delta frames the hub reconstructs before
	// serving. The report body is byte-identical either way — v3 only
	// appends a line accounting the wire bytes saved. Raw backend only.
	Wire string
	// Loss injects seeded publish loss at the hub (see Config.Loss):
	// dropped publishes leave each sender's last delivered frame serving,
	// and rounds flag those senders stale. The zero value changes nothing
	// in the report.
	Loss network.LossModel
	// Drift is the bound, in metres, of each client's seeded
	// localization-error walk: published and fusing states drift off the
	// true poses while sensing and ground truth stay exact. Zero changes
	// nothing in the report.
	Drift float64
	// Metrics, when set, receives the run's telemetry through the hub
	// (publish/round counters, loss drops, keyframe misses) plus the
	// client-side keyframe-retry total. The registry's contents are
	// deterministic: identical options produce identical snapshots.
	Metrics *telemetry.Registry
	// Store, when set, receives the full episode as an append-only log:
	// published frames, every client's fusion round (inputs included),
	// the fused detections and the track states — replayable via
	// store.ReplayEpisode to byte-identical detections. SelfTest finishes
	// the log (End record, flushed) before the report prints; the caller
	// still closes it.
	Store *store.EpisodeWriter
	// HTTPAddr, when non-empty, serves the hub's stats API for the
	// run's duration (see Linger).
	HTTPAddr string
	// Linger keeps the hub (and its stats API) alive for the given
	// wall-clock duration after the report is written, so external
	// observers can scrape a settled run. It affects nothing in the
	// report or the metrics.
	Linger time.Duration
}

// selfReport is one client's deterministic round outcome: the
// receiver stage's FusedFrame (its round's Receiver, Lost stale senders
// and PayloadBytes feed the report) plus the round's schedule and
// payload-selection rungs. Reports are written to the episode store
// sequentially after the parallel phase, so the log's record order is
// deterministic.
type selfReport struct {
	core.FusedFrame
	senders     []string
	plan        network.Plan
	categories  map[roi.Category]int
	downsampled int
}

// SelfTest spins up a hub plus an in-process fleet of TCP clients from a
// generated scenario and writes a fused precision/recall and modelled
// per-round-latency report — for one frozen round, or, with Frames > 1,
// for a streamed episode over the moving world with per-client track
// continuity. Every figure in the report is derived from seeded sensing,
// deterministic payload selection and the DSRC schedule model — never
// from wall-clock — so the output is byte-identical across runs and
// worker counts.
func SelfTest(w io.Writer, opts SelfTestOptions) error {
	if opts.Family == "" {
		opts.Family = string(scene.FamilyPlatoon)
	}
	fam, ok := scene.ParseFamily(opts.Family)
	if !ok {
		return fmt.Errorf("hub: unknown scenario family %q (families: %v)", opts.Family, scene.Families())
	}
	if opts.Fleet < 2 {
		return fmt.Errorf("hub: selftest needs a fleet of at least 2, got %d", opts.Fleet)
	}
	frames := opts.Frames
	if frames < 1 {
		frames = 1
	}
	if opts.Hz <= 0 {
		opts.Hz = 2
	}
	backend := opts.Backend
	if backend == nil {
		backend = fusion.RawBackend{}
	}
	feature := backend.Name() == "feature"
	wireV3 := false
	switch opts.Wire {
	case "", "v2":
	case "v3":
		if feature {
			return fmt.Errorf("hub: -wire v3 delta-codes point-cloud frames; the feature backend publishes CPF3")
		}
		wireV3 = true
	default:
		return fmt.Errorf("hub: unknown wire %q (want v2 or v3)", opts.Wire)
	}
	sc, err := scene.Generate(scene.GenParams{Family: fam, Fleet: opts.Fleet, Seed: opts.Seed, Traffic: opts.Traffic})
	if err != nil {
		return err
	}

	h := New(Config{MaxSenders: scene.MaxFleet, Loss: opts.Loss, Metrics: opts.Metrics, HTTPAddr: opts.HTTPAddr})

	// Localization drift: one seeded error walk per client, precomputed
	// sequentially; the fan-out phases only index into it. The walks come
	// from the scenario, as core's episode engine takes them, so the
	// selftest and an episode drift the same vehicle the same way.
	walks := sc.DriftWalks(opts.Drift, frames)
	l, err := network.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	go h.Serve(l)
	defer h.Close()
	if _, err := h.StartHTTP(); err != nil {
		return err
	}

	budgetBps := uint64(opts.BandwidthMbps * 1e6)
	k := opts.MaxSenders
	if k <= 0 || k > opts.Fleet-1 {
		k = opts.Fleet - 1
	}

	// One long-lived session per vehicle; frames republish through it.
	clients := make([]*Client, opts.Fleet)
	for i := 0; i < opts.Fleet; i++ {
		cl, _, err := Connect(l.Addr(), sc.PoseLabels[i], core.PoseState(sc.Poses[i], sc.LiDAR.MountHeight))
		if err != nil {
			return err
		}
		clients[i] = cl
	}
	defer func() {
		for _, cl := range clients {
			if cl != nil {
				cl.Close()
			}
		}
	}()

	poseOf := make(map[string]int, len(sc.PoseLabels))
	for i, label := range sc.PoseLabels {
		poseOf[label] = i
	}

	trackers := make([]*track.Tracker, opts.Fleet)
	assocs := make([][]eval.FrameAssoc, opts.Fleet)
	for i := range trackers {
		trackers[i] = track.New(track.DefaultConfig())
	}

	// One detector scratch per phase-2 worker, reused across frames: the
	// per-round single-shot and fused passes then stop allocating once
	// the buffers warm up.
	scratches := spod.NewScratches(parallel.WorkerCount(opts.Workers, opts.Fleet))

	// v3 wire accounting, per client so the parallel publish phase stays
	// race-free and deterministic: bytes actually sent on the delta
	// stream versus what full quantized publishes would have cost.
	wireSent := make([]int, opts.Fleet)
	wireFull := make([]int, opts.Fleet)

	allReports := make([][]selfReport, frames)
	var pubFrames []store.Frame
	if opts.Store != nil {
		pubFrames = make([]store.Frame, opts.Fleet)
	}
	for f := 0; f < frames; f++ {
		var at time.Duration
		if frames > 1 {
			at = time.Duration(float64(f) / opts.Hz * float64(time.Second))
		}
		snap := sc.At(at)

		// Phase 1 — every vehicle senses the world as it stands and
		// publishes its frame. The barrier between the phases makes the
		// cache contents (and therefore every round) independent of
		// client scheduling.
		vehicles, err := parallel.MapErr(opts.Workers, opts.Fleet, func(i int) (*core.Vehicle, error) {
			v := core.PoseVehicleSeeded(snap, i, sc.SensingSeed(i, int64(f)*100003)).SetWorkers(1)
			v.Sense(snap.Scene.Targets(), snap.Scene.GroundZ)
			frame, err := v.SensorFrame(nil)
			if err != nil {
				return nil, err
			}
			state := core.DriftedState(v.State(), walks[i], f)
			if wireV3 {
				_, sent, err := clients[i].PublishDelta(state, frame.Cloud)
				if err != nil {
					return nil, err
				}
				wireSent[i] += sent
				wireFull[i] += pointcloud.EncodedSizeQuantized(frame.Cloud.Len())
				if pubFrames != nil {
					pubFrames[i] = store.Frame{Frame: f, Sender: sc.PoseLabels[i],
						Seq: uint64(f + 1), State: state, Payload: clients[i].LastWirePayload()}
				}
				return v, nil
			}
			p, err := backend.Encode(frame, nil)
			if err != nil {
				return nil, err
			}
			if feature {
				_, err = clients[i].PublishFeatures(state, p.Data)
			} else {
				_, err = clients[i].Publish(state, p.Data)
			}
			if err != nil {
				return nil, err
			}
			if pubFrames != nil {
				pubFrames[i] = store.Frame{Frame: f, Sender: sc.PoseLabels[i],
					Seq: uint64(f + 1), State: state, Payload: p.Data}
			}
			return v, nil
		})
		if err != nil {
			return err
		}

		// Every round carries k frames under the same budget, so each
		// sender's payload-selection rung is the same in every round:
		// derive it once per vehicle here rather than per pair.
		selections := make(map[string]roi.Selection, opts.Fleet)
		for _, label := range sc.PoseLabels {
			sel, err := selectionFor(h, label, k, budgetBps, feature)
			if err != nil {
				if opts.Loss.Enabled() {
					// Every publish of this vehicle's so far was lost, so
					// no round serves it; nothing to pre-derive.
					continue
				}
				return err
			}
			selections[label] = sel
		}

		// Phase 2 — every vehicle requests a fusion round and detects on
		// the merge. Rounds read the now-immutable cache, so outcomes
		// depend only on the scenario, the frame, the budget and k.
		reports, err := parallel.MapErrWorker(opts.Workers, opts.Fleet, func(w, i int) (selfReport, error) {
			scratch := scratches[w]
			v := vehicles[i]
			var rframes []RoundFrame
			var err error
			reqState := core.DriftedState(v.State(), walks[i], f)
			if feature {
				rframes, err = clients[i].RequestFeatureRound(reqState, k, budgetBps)
			} else {
				rframes, err = clients[i].RequestRound(reqState, k, budgetBps)
			}
			if err != nil {
				return selfReport{}, err
			}
			recv, err := v.SensorFrame(nil)
			if err != nil {
				return selfReport{}, err
			}
			cfg := recv.Detector.Config()
			singles, _, err := v.Detect(scratch)
			if err != nil {
				return selfReport{}, err
			}
			rep := selfReport{categories: make(map[roi.Category]int)}
			round := store.Round{
				Frame: f, Receiver: v.ID, State: reqState, Own: recv.Cloud,
				FOVTop: cfg.VerticalFOVTop, MaxRange: cfg.MaxDetectionRange,
			}
			sizes := make([]int, 0, len(rframes))
			participants := []int{i}
			for _, rf := range rframes {
				rep.senders = append(rep.senders, rf.Sender)
				if rf.Stale {
					round.Lost++
				}
				round.PayloadBytes += int64(len(rf.Payload))
				sizes = append(sizes, len(rf.Payload))
				round.Payloads = append(round.Payloads, store.RoundPayload{Sender: rf.Sender, State: rf.State, Data: rf.Payload})
				p, ok := poseOf[rf.Sender]
				if !ok {
					return selfReport{}, fmt.Errorf("hub: round frame from unknown vehicle %q", rf.Sender)
				}
				participants = append(participants, p)
				sel := selections[rf.Sender]
				rep.categories[sel.Category]++
				if sel.Downsampled {
					rep.downsampled++
				}
			}
			rep.plan = h.cfg.Scheduler.Plan(sizes)
			round.LatencyUS = rep.plan.Completion().Microseconds()
			rep.FusedFrame, err = core.DetectFrame(snap, i, participants, singles, round, backend, scratch)
			return rep, err
		})
		if err != nil {
			return err
		}

		// Phase 3 — the per-client track layer consumes the fused
		// detections in timeline order; the episode store (if any) is
		// appended here, sequentially, so record order is deterministic.
		if opts.Store != nil {
			for i := range pubFrames {
				if err := opts.Store.WriteFrame(pubFrames[i]); err != nil {
					return err
				}
			}
		}
		for i := range reports {
			rep := &reports[i]
			ids := trackers[i].Step(at, rep.WorldDets)
			assocs[i] = append(assocs[i], rep.Assoc.FrameAssoc(ids))
			if err := opts.Store.WriteFused(rep.Round, rep.Dets, trackers[i].Tracks()); err != nil {
				return err
			}
		}
		allReports[f] = reports
	}

	// Keyframe retries: the clients' in-band delta recoveries, summed
	// into telemetry before the report prints so a scrape after the
	// final report line always sees settled counters.
	var retries uint64
	for _, cl := range clients {
		retries += cl.KeyframeRetries()
	}
	opts.Metrics.Counter("client_keyframe_retries_total").Add(int64(retries))
	// The episode log is complete too: its End record is written and
	// flushed before the report prints, so a reader that sees the last
	// report line — while the hub lingers — reads the whole episode.
	if err := opts.Store.Finish(); err != nil {
		return err
	}

	if frames == 1 {
		printSelfTest(w, sc, opts, k, budgetBps, allReports[0])
	} else {
		printStreaming(w, sc, opts, frames, k, budgetBps, allReports, assocs)
	}
	if wireV3 {
		var sent, full int
		for i := range wireSent {
			sent += wireSent[i]
			full += wireFull[i]
		}
		ratio := 1.0
		if full > 0 {
			ratio = float64(sent) / float64(full)
		}
		fmt.Fprintf(w, "\nwire v3: published %d B on the delta stream vs %d B full quantized (%.2f×)\n",
			sent, full, ratio)
		fmt.Fprintf(w, "wire v3: %d keyframe retries recovered in-band\n", retries)
	}
	if opts.Linger > 0 {
		//cooper:wallclock -linger wall-clock flag path: holds the stats server open after the transcript is complete
		time.Sleep(opts.Linger)
	}
	return nil
}

// selectionFor reports the payload-selection rung the hub used for one
// sender in a round of n frames under the given cap.
func selectionFor(h *Hub, sender string, n int, budgetBps uint64, feature bool) (roi.Selection, error) {
	h.mu.RLock()
	f := h.frames[sender]
	h.mu.RUnlock()
	if f == nil {
		return roi.Selection{}, fmt.Errorf("hub: no cached frame for %s", sender)
	}
	return f.selection(h.perSender(budgetBps, n), feature)
}

func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// degradedNote labels degraded-world reports: the loss and drift knobs
// in play. Empty for a clean run, so default transcripts stay
// byte-identical to the pre-degradation harness.
func degradedNote(opts SelfTestOptions) string {
	note := ""
	if opts.Loss.Enabled() {
		note += fmt.Sprintf(" loss=%g(seed %d)", opts.Loss.DropRate, opts.Loss.Seed)
	}
	if opts.Drift > 0 {
		note += fmt.Sprintf(" drift=%gm", opts.Drift)
	}
	return note
}

// backendName labels the report header with the fusion strategy.
func backendName(opts SelfTestOptions) string {
	if opts.Backend == nil {
		return fusion.RawBackend{}.Name()
	}
	return opts.Backend.Name()
}

func printSelfTest(w io.Writer, sc *scene.Scenario, opts SelfTestOptions, k int, budgetBps uint64, reports []selfReport) {
	budget := "uncapped"
	if budgetBps > 0 {
		budget = fmt.Sprintf("%.2f Mbit/s", float64(budgetBps)/1e6)
	}
	fmt.Fprintf(w, "selftest %s fleet=%d seed=%d k=%d budget=%s backend=%s%s\n",
		opts.Family, opts.Fleet, opts.Seed, k, budget, backendName(opts), degradedNote(opts))
	fmt.Fprintf(w, "scenario %s: %d-beam LiDAR, %d poses, %d ground-truth cars\n",
		sc.Name, sc.LiDAR.BeamCount(), len(sc.Poses), len(sc.Scene.Cars()))

	var singleR, coopR, fits float64
	var maxLatency string
	var maxCompletion int64
	for _, r := range reports {
		cats := make([]string, 0, 2)
		for _, cat := range []roi.Category{roi.CategoryFullFrame, roi.CategoryFrontFOV, roi.CategoryLeadView, roi.CategoryFeature} {
			if n := r.categories[cat]; n > 0 {
				cats = append(cats, fmt.Sprintf("%d× cat%d", n, cat))
			}
		}
		catNote := strings.Join(cats, ", ")
		if r.downsampled > 0 {
			catNote += fmt.Sprintf(" (%d downsampled)", r.downsampled)
		}
		if opts.Loss.Enabled() {
			catNote += fmt.Sprintf(" | %d stale", r.Round.Lost)
		}
		fmt.Fprintf(w, "\nround %s: fuses %s | %d KB | latency %v | load %.2f Mbit/s (util %.0f%%, fits %v) | %s\n",
			r.Round.Receiver, strings.Join(r.senders, "+"), r.Round.PayloadBytes/1024,
			r.plan.Completion(), r.plan.MbitPerSecond(), 100*r.plan.Utilization(), r.plan.Fits(), catNote)
		fmt.Fprintf(w, "  single-shot P=%s R=%s   cooper P=%s R=%s\n",
			pct(r.Single.Precision()), pct(r.Single.Recall()),
			pct(r.Coop.Precision()), pct(r.Coop.Recall()))

		singleR += r.Single.Recall()
		coopR += r.Coop.Recall()
		if r.plan.Fits() {
			fits++
		}
		if c := r.plan.Completion(); int64(c) >= maxCompletion {
			maxCompletion = int64(c)
			maxLatency = fmt.Sprint(c)
		}
	}
	n := float64(len(reports))
	fmt.Fprintf(w, "\nfleet mean: single recall %s -> cooper recall %s | worst round latency %s | channel fits %d/%d\n",
		pct(singleR/n), pct(coopR/n), maxLatency, int(fits), len(reports))
}

// printStreaming renders the episode form of the selftest: one line per
// streamed frame (fleet means) plus the per-client temporal summary.
func printStreaming(w io.Writer, sc *scene.Scenario, opts SelfTestOptions, frames, k int, budgetBps uint64, allReports [][]selfReport, assocs [][]eval.FrameAssoc) {
	budget := "uncapped"
	if budgetBps > 0 {
		budget = fmt.Sprintf("%.2f Mbit/s", float64(budgetBps)/1e6)
	}
	fmt.Fprintf(w, "selftest %s fleet=%d seed=%d k=%d budget=%s backend=%s frames=%d hz=%g%s\n",
		opts.Family, opts.Fleet, opts.Seed, k, budget, backendName(opts), frames, opts.Hz, degradedNote(opts))
	fmt.Fprintf(w, "scenario %s: %d-beam LiDAR, %d poses, %d ground-truth cars, %d moving\n",
		sc.Name, sc.LiDAR.BeamCount(), len(sc.Poses), len(sc.Scene.Cars()), sc.MovingObjects())

	var episodeSingle, episodeCoop float64
	for f, reports := range allReports {
		at := time.Duration(float64(f) / opts.Hz * float64(time.Second))
		var singleR, coopR float64
		var fits, stale int
		var worst time.Duration
		for _, r := range reports {
			singleR += r.Single.Recall()
			coopR += r.Coop.Recall()
			if r.plan.Fits() {
				fits++
			}
			stale += r.Round.Lost
			if c := r.plan.Completion(); c > worst {
				worst = c
			}
		}
		n := float64(len(reports))
		episodeSingle += singleR / n
		episodeCoop += coopR / n
		staleNote := ""
		if opts.Loss.Enabled() {
			staleNote = fmt.Sprintf(" | stale %d", stale)
		}
		fmt.Fprintf(w, "frame %2d t=%5dms: single R=%s -> cooper R=%s | worst latency %v | fits %d/%d%s\n",
			f, at.Milliseconds(), pct(singleR/n), pct(coopR/n), worst, fits, len(reports), staleNote)
	}

	fmt.Fprintln(w, "\ntracks per vehicle:")
	var contSum float64
	totalSwitches := 0
	for i, frameAssocs := range assocs {
		st := eval.Temporal(frameAssocs)
		contSum += st.Continuity()
		totalSwitches += st.IDSwitches
		fmt.Fprintf(w, "  %-4s continuity %s (%d/%d truth-frames), %d tracks on truth, %d switches, %d fragments\n",
			sc.PoseLabels[i], pct(st.Continuity()), st.MatchedFrames, st.TruthFrames,
			st.Tracks, st.IDSwitches, st.Fragments)
	}
	nf := float64(frames)
	fmt.Fprintf(w, "\nfleet mean over %d frames: single recall %s -> cooper recall %s | continuity %s | %d ID switches\n",
		frames, pct(episodeSingle/nf), pct(episodeCoop/nf),
		pct(contSum/float64(len(assocs))), totalSwitches)
}

package core

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"cooper/internal/eval"
	"cooper/internal/fusion"
	"cooper/internal/geom"
	"cooper/internal/lidar"
	"cooper/internal/network"
	"cooper/internal/parallel"
	"cooper/internal/pointcloud"
	"cooper/internal/scene"
	"cooper/internal/spod"
	"cooper/internal/store"
	"cooper/internal/telemetry"
	"cooper/internal/track"
)

// EpisodeOptions parameterises a multi-frame episode run.
type EpisodeOptions struct {
	// Frames is the number of fused frames (≥ 1).
	Frames int
	// Hz is the frame rate; every vehicle senses and broadcasts once per
	// period. Defaults to 10.
	Hz float64
	// Delay is the extra modelled channel delay added to every broadcast
	// round beyond its DSRC transmission time (the sweep axis of
	// Fig. 15).
	Delay time.Duration
	// Compensate enables sender-side motion compensation of stale
	// clouds; without it a receiver fuses each stale frame as captured.
	Compensate bool
	// Workers bounds the per-frame fan-out goroutines (< 1 = one per
	// CPU). Results are byte-identical at any value.
	Workers int
	// Backend selects the fusion strategy senders broadcast with; nil
	// means raw-cloud fusion.
	Backend fusion.Backend
	// Wire selects the broadcast wire path. "v2" (default) broadcasts
	// every frame as a self-contained quantized encode; "v3" delta-codes
	// each sender's frame stream (CPD1 keyframes plus deltas), shrinking
	// the scheduled payloads — and therefore the delivery timeline — while
	// the fused bytes stay identical: every delta reconstruction is
	// verified byte-for-byte against the canonical encode before fusion.
	// v3 requires the raw backend and an uncompensated episode
	// (compensation re-encodes per receiving frame, so there is no single
	// broadcast stream to delta-code).
	Wire string
	// KeyframeInterval is the v3 keyframe cadence per sender stream
	// (0 = pointcloud.DefaultKeyframeInterval).
	KeyframeInterval int
	// Loss degrades the broadcast channel: seeded per-slot drops, burst
	// episodes and bounded reordering (see network.LossModel). A dropped
	// slot loses that sender's frame for the round; the receiver falls
	// back to the sender's newest delivered frame instead. The zero
	// value is the lossless channel: every slot arrives at its round's
	// scheduled Ready.
	Loss network.LossModel
	// Drift is the bound, in metres, of each vehicle's seeded
	// localization-error walk (scene.Scenario.DriftWalks): reported
	// GPS/IMU states drift off the true poses while sensing, occlusion
	// and ground truth stay exact. Zero means exact localization.
	Drift float64
	// Correct runs the ICP alignment-correction stage on every fused
	// round — fusion.RawBackend's in-loop refinement — recovering what
	// drift miscalibrates. Requires the raw backend.
	Correct bool
	// Metrics, when non-nil, receives the episode's telemetry: frame and
	// payload counters plus latency/staleness/ICP histograms. Every value
	// derives from sim time and byte counts, so two identical episodes
	// produce identical metrics regardless of Workers or wall-clock.
	Metrics *telemetry.Registry
	// Sink, when non-nil, records the episode as a replayable store log:
	// sender broadcasts, per-frame fusion rounds (receiver cloud, wire
	// payloads, the MaxDist override), fused detections and track states.
	// The caller owns the writer (and wrote its header); Run appends the
	// records in timeline order and never closes it.
	Sink *store.EpisodeWriter
}

// backend resolves the episode's fusion backend.
func (o EpisodeOptions) backend() fusion.Backend {
	if o.Backend == nil {
		return fusion.RawBackend{}
	}
	return o.Backend
}

// EpisodeFrame is one fused frame's outcome.
type EpisodeFrame struct {
	// Index and At identify the frame on the episode timeline.
	Index int
	At    time.Duration
	// SenderFrame is the timeline index of the newest broadcast round
	// fully delivered by At — the round this frame fused. It is -1
	// during warm-up, before any round has cleared the channel, when the
	// receiver falls back to its own single shot. Under a lossy channel
	// each sender contributes its own newest delivered frame;
	// SenderFrame is then the newest among them.
	SenderFrame int
	// Staleness is the age of the oldest fused sender cloud (zero in
	// warm-up). On a lossless v2 channel every fused cloud shares one
	// age. A sender contributes an older frame, stretching this, when its
	// recent slots dropped, or on wire v3 when its newest delivered delta
	// still waits for the keyframe it decodes from (even without loss).
	Staleness time.Duration
	// Senders is the number of fused sender clouds. Lost counts senders
	// with no usable frame by At — every broadcast of theirs so far was
	// dropped, or on wire v3 is still undecodable for want of its
	// keyframe — so the frame fused without them. Lost is always zero on
	// a lossless v2 channel, including warm-up (nothing was lost; nothing
	// had arrived for anyone); on v3 the keyframe wait alone can raise it.
	Senders int
	Lost    int
	// PayloadBytes totals the round's transmitted (post-compensation)
	// payloads; RoundLatency is the round's modelled delivery time
	// (channel completion plus extra delay). The schedule is planned
	// from the raw capture encodes — the point count compensation
	// preserves — so the two can differ by the compensated re-encode's
	// quantization bounds, a fraction of a percent.
	PayloadBytes int
	RoundLatency time.Duration
	// Single and Coop score the receiver's single shot and the fused
	// pass against ground truth at At.
	Single, Coop TruthStats
}

// EpisodeResult is a full episode: per-frame outcomes plus the temporal
// metrics of the track layer that consumed the fused detections.
type EpisodeResult struct {
	Scenario *scene.Scenario
	Case     scene.CoopCase
	Frames   []EpisodeFrame
	Temporal eval.TemporalStats
	// Tracks is the number of live tracks when the episode ended.
	Tracks int
	// DroppedSlots counts the broadcast slots the channel lost over the
	// episode, summed over every round's LossyPlan — zero on a clean
	// channel.
	DroppedSlots int
}

// MeanCoopRecall averages the fused recall over all frames.
func (r *EpisodeResult) MeanCoopRecall() float64 {
	return r.mean(func(f EpisodeFrame) float64 { return f.Coop.Recall() })
}

func (r *EpisodeResult) mean(of func(EpisodeFrame) float64) float64 {
	if len(r.Frames) == 0 {
		return 0
	}
	sum := 0.0
	for _, f := range r.Frames {
		sum += of(f)
	}
	return sum / float64(len(r.Frames))
}

// episodeScheduler is the channel model episodes broadcast on: the
// 27 Mbit/s DSRC rate — streaming full frames at multiple Hz needs the
// high-rate service class; the 6 Mbit/s default cannot even carry one
// 64-beam frame per second — at the episode's frame rate.
func episodeScheduler(hz float64, delay time.Duration) network.Scheduler {
	return network.Scheduler{Channel: network.HighRateDSRC(), RateHz: hz, ExtraDelay: delay}
}

// episodeLatencyBuckets bound the episode latency and staleness
// histograms, in microseconds of sim time.
var episodeLatencyBuckets = []int64{1000, 5000, 10000, 25000, 50000, 100000, 250000, 500000, 1000000, 5000000}

// episodeICPBuckets bound the ICP-correction histogram, in micrometres
// of residual translation (0.1 mm up to 1 m).
var episodeICPBuckets = []int64{100, 1000, 10000, 100000, 1000000}

// labKey identifies one capture: a pose sensed at an episode timestamp.
type labKey struct {
	pose int
	at   time.Duration
}

// labEntry is a capture computed exactly once per lab.
type labEntry struct {
	once    sync.Once
	scan    lidar.Scan
	pose    geom.Transform // world pose at capture
	payload []byte         // quantized encode of the raw (cropped) capture
	err     error

	detOnce sync.Once
	dets    []spod.Detection // single-shot detections on the capture

	// featOnce caches the feature-backend broadcast encode of the
	// capture. An episode lab sees one feature-backend configuration per
	// sweep, so a single slot suffices.
	featOnce    sync.Once
	featPayload []byte
	featErr     error
}

// EpisodeLab runs episodes over one scenario, caching captures — the
// ray-cast-dominated cost — by (pose, time) so that sweeps across
// delays, rates and compensation modes resensing the same instants pay
// for them once. A lab is safe for concurrent use; every cached value is
// a pure function of its key, so sharing never perturbs results.
type EpisodeLab struct {
	sc *scene.Scenario

	mu       sync.Mutex
	captures map[labKey]*labEntry
}

// NewEpisodeLab prepares an episode lab for the scenario.
func NewEpisodeLab(sc *scene.Scenario) *EpisodeLab {
	return &EpisodeLab{sc: sc, captures: make(map[labKey]*labEntry)}
}

// capture senses pose i at episode time t (once). The sensing seed mixes
// the scenario seed, the pose and the timestamp, so every capture owns a
// noise stream independent of evaluation order.
func (l *EpisodeLab) capture(i int, t time.Duration) *labEntry {
	key := labKey{pose: i, at: t}
	l.mu.Lock()
	e, ok := l.captures[key]
	if !ok {
		e = &labEntry{}
		l.captures[key] = e
	}
	l.mu.Unlock()

	e.once.Do(func() {
		snap := l.sc.At(t)
		e.pose = snap.Poses[i]
		seed := l.sc.SensingSeed(i, int64(t/time.Millisecond)*1000003)
		scanner := lidar.NewScanner(l.sc.LiDAR, seed).SetWorkers(1)
		e.scan = scanner.ScanFrom(e.pose, snap.Scene.Targets(), snap.Scene.GroundZ)
		payload, err := pointcloud.EncodeQuantized(l.cropFOV(e.scan.Cloud))
		if err != nil {
			e.err = fmt.Errorf("core: encoding capture of pose %d at %v: %w", i, t, err)
			return
		}
		e.payload = payload
	})
	return e
}

// singleDetect runs (once) the single-shot detector on a capture,
// borrowing the caller's scratch. Whichever frame job reaches a capture
// first computes it; the result is a pure function of the capture, so
// the winner's identity never shows in the output.
func (l *EpisodeLab) singleDetect(e *labEntry, s *spod.DetectorScratch) []spod.Detection {
	e.detOnce.Do(func() {
		e.dets, _ = spod.New(scenarioDetectorConfig(l.sc)).Detect(l.cropFOV(e.scan.Cloud), nil, s)
	})
	return e.dets
}

// cropFOV applies the scenario's front-FOV restriction, if any.
func (l *EpisodeLab) cropFOV(c *pointcloud.Cloud) *pointcloud.Cloud {
	if l.sc.FrontFOV > 0 {
		return c.CropFOV(0, l.sc.FrontFOV/2)
	}
	return c
}

// payloadFor returns the backend's broadcast encode of a capture: the
// cached quantized encode for the raw backend (computed at capture
// time), the cached feature encode otherwise. Both are pure functions of
// the capture — neither backend's bytes depend on the sender state — so
// whichever run computes one first never shows in the output.
func (l *EpisodeLab) payloadFor(e *labEntry, backend fusion.Backend, det *spod.Detector) ([]byte, error) {
	if _, raw := backend.(fusion.RawBackend); raw {
		return e.payload, nil
	}
	e.featOnce.Do(func() {
		p, err := backend.Encode(fusion.SensorFrame{Cloud: l.cropFOV(e.scan.Cloud), Detector: det}, nil)
		e.featPayload, e.featErr = p.Data, err
	})
	return e.featPayload, e.featErr
}

// poseLabel names a pose for store records: the scenario's label when it
// has one, a positional fallback otherwise.
func (l *EpisodeLab) poseLabel(i int) string {
	if i >= 0 && i < len(l.sc.PoseLabels) {
		return l.sc.PoseLabels[i]
	}
	return fmt.Sprintf("p%d", i)
}

// Run plays one episode of the scenario's N-way case (case 0): Frames
// fused frames at Hz. Per frame, every vehicle senses the moving world;
// the senders' frames are broadcast as one DSRC round per frame on the
// shared channel; and the receiver fuses each sender's newest usable
// frame — delivered by the loss model (on a clean channel, at the
// round's transmission time plus Delay) and, on wire v3, decodable
// because its keyframe arrived too — with its own fresh cloud,
// motion-compensating the stale clouds when enabled. Each frame builds
// its store.Round and runs it through DetectFrame, whose Round.Detect is
// the function replay runs. Fused detections feed the track layer;
// ground truth is evaluated at each frame's timestamp.
//
// The delivery timeline is computed up front from the loss model's
// per-slot delivery times; per-frame sensing, fusion and detection then
// fan out over Workers goroutines. Both the per-frame rows and the
// track metrics are byte-identical at any worker count.
func (l *EpisodeLab) Run(opts EpisodeOptions) (*EpisodeResult, error) {
	sc := l.sc
	if opts.Frames < 1 {
		return nil, fmt.Errorf("core: episode needs at least 1 frame, got %d", opts.Frames)
	}
	if opts.Hz <= 0 {
		opts.Hz = 10
	}
	if len(sc.Cases) == 0 {
		return nil, fmt.Errorf("core: scenario %s has no cooperative case", sc.Name)
	}
	c := sc.Cases[0]
	receiver := c.Receiver()
	senders := c.Senders()
	period := time.Duration(float64(time.Second) / opts.Hz)
	at := func(k int) time.Duration { return time.Duration(k) * period }

	backend := opts.backend()
	_, rawBackend := backend.(fusion.RawBackend)
	wireV3 := false
	switch opts.Wire {
	case "", "v2":
	case "v3":
		if !rawBackend {
			return nil, fmt.Errorf("core: wire v3 delta-codes raw point-cloud broadcasts; backend %q is not raw", backend.Name())
		}
		if opts.Compensate {
			return nil, fmt.Errorf("core: wire v3 needs an uncompensated episode: compensation re-encodes per receiving frame, so there is no broadcast stream to delta-code")
		}
		wireV3 = true
	default:
		return nil, fmt.Errorf("core: unknown wire %q (want v2 or v3)", opts.Wire)
	}
	if opts.Correct {
		rb, ok := backend.(fusion.RawBackend)
		if !ok {
			return nil, fmt.Errorf("core: alignment correction is raw-cloud ICP; backend %q is not raw", backend.Name())
		}
		rb.UseICP = true
		backend = rb
	}

	// Phase 1 — captures: every participant senses at every frame time,
	// in parallel. Each capture owns its seeded noise stream.
	participants := append([]int{receiver}, senders...)

	// Localization drift: each pose owns a seeded bounded error walk over
	// the episode. Only reported GPS/IMU states drift — true poses keep
	// driving sensing, occlusion, compensation and ground truth. Frame
	// workers only ever index into the precomputed walks.
	walks := sc.DriftWalks(opts.Drift, opts.Frames)
	// stateFor is the GPS/IMU state pose p reports at frame k: the true
	// pose's state plus that frame's drift error, if any.
	stateFor := func(pose geom.Transform, p, k int) fusion.VehicleState {
		return DriftedState(PoseState(pose, sc.LiDAR.MountHeight), walks[p], k)
	}
	type capJob struct {
		pose int
		t    time.Duration
	}
	var jobs []capJob
	for k := 0; k < opts.Frames; k++ {
		for _, p := range participants {
			jobs = append(jobs, capJob{p, at(k)})
		}
	}
	if err := parallel.ForErr(opts.Workers, len(jobs), func(i int) error {
		return l.capture(jobs[i].pose, jobs[i].t).err
	}); err != nil {
		return nil, err
	}

	// Phase 1.5 — the broadcast table: what each sender put on the air at
	// every frame, and the frame whose keyframe it decodes from. On v2
	// that is the capture's backend encode, decodable alone. On v3 each
	// sender's captures delta-code as one CPD1 stream in timeline order,
	// keyframes at the interval and deltas between; every frame is
	// decoded back and re-encoded to prove the reconstruction is
	// byte-identical to the canonical capture encode the fusion phase
	// consumes: v3 changes payload sizes (and therefore the delivery
	// timeline), never the fused bytes. Senders fan out in parallel;
	// within a stream the encoder state makes frame order load-bearing.
	type broadcast struct {
		wire []byte
		key  int
	}
	det := spod.New(scenarioDetectorConfig(l.sc))
	air := make([][]broadcast, len(senders)) // [sender slot][frame]
	if err := parallel.ForErr(opts.Workers, len(senders), func(si int) error {
		air[si] = make([]broadcast, opts.Frames)
		if !wireV3 {
			for k := range air[si] {
				wire, err := l.payloadFor(l.capture(senders[si], at(k)), backend, det)
				if err != nil {
					return err
				}
				air[si][k] = broadcast{wire, k}
			}
			return nil
		}
		enc := pointcloud.DeltaEncoder{Interval: opts.KeyframeInterval}
		var dec pointcloud.DeltaDecoder
		recon := pointcloud.GetCloud()
		defer pointcloud.PutCloud(recon)
		lastKey := 0
		for k := range air[si] {
			e := l.capture(senders[si], at(k))
			data, key, err := enc.Encode(l.cropFOV(e.scan.Cloud), uint64(k+1))
			if err != nil {
				return fmt.Errorf("core: delta-encoding pose %d frame %d: %w", senders[si], k, err)
			}
			if key {
				lastKey = k
			}
			if err := dec.DecodeInto(data, recon); err != nil {
				return fmt.Errorf("core: reconstructing pose %d frame %d: %w", senders[si], k, err)
			}
			canonical, err := pointcloud.EncodeQuantized(recon)
			if err != nil {
				return fmt.Errorf("core: re-encoding pose %d frame %d: %w", senders[si], k, err)
			}
			if !bytes.Equal(canonical, e.payload) {
				return fmt.Errorf("core: pose %d frame %d: delta reconstruction diverged from the canonical encode", senders[si], k)
			}
			air[si][k] = broadcast{append([]byte(nil), data...), lastKey}
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// Phase 2 — the delivery timeline. Round j (the senders' frames
	// captured at t_j) is planned on the shared channel, and the loss
	// model gives every slot its own fate. Sender slot si's frame j is
	// usable at frame k when its slot was delivered, and so was the
	// keyframe it decodes from, by t_k; each frame fuses every sender's
	// newest usable frame, however stale. The zero model delivers every
	// slot at the plan's Ready, so a clean channel is the same timeline
	// with nothing dropped. Slots are planned from the broadcast table:
	// compensation preserves the point count, and the warp target
	// depends on this very schedule, so planning from compensated sizes
	// would be circular.
	sched := episodeScheduler(opts.Hz, opts.Delay)
	lps := make([]network.LossyPlan, opts.Frames)
	dropped := 0
	for j := range lps {
		sizes := make([]int, len(senders))
		for si := range senders {
			sizes[si] = len(air[si][j].wire)
		}
		lps[j] = opts.Loss.Round(int64(j), sched.Plan(sizes))
		dropped += len(senders) - lps[j].DeliveredCount()
	}
	usableAt := func(j, si int) (time.Duration, bool) {
		kj := air[si][j].key
		d, ok := lps[j].AvailableAt(si)
		kd, keyOK := lps[kj].AvailableAt(si)
		if !ok || !keyOK {
			// Dropped — or its keyframe was, so it arrived but cannot be
			// reconstructed.
			return 0, false
		}
		return max(at(j)+d, at(kj)+kd), true
	}
	sround := make([][]int, opts.Frames) // frame k → per-sender fused frame (-1 = none)
	for k := range sround {
		sround[k] = make([]int, len(senders))
		for si := range senders {
			best := -1
			for j := 0; j <= k; j++ {
				if t, ok := usableAt(j, si); ok && t <= at(k) {
					best = j
				}
			}
			sround[k][si] = best
		}
	}

	// Phase 3 — frames fan out: sense → compensate → encode → align →
	// merge → detect → score, all pure per-frame work. Each worker owns
	// one detector scratch shared by its frames' single-shot and fused
	// passes.
	type frameEval struct {
		frame EpisodeFrame
		FusedFrame
	}
	detCfg := scenarioDetectorConfig(l.sc)
	scratches := spod.NewScratches(parallel.WorkerCount(opts.Workers, opts.Frames))
	evals, err := parallel.MapErrWorker(opts.Workers, opts.Frames, func(w, k int) (frameEval, error) {
		scratch := scratches[w]
		tk := at(k)
		own := l.capture(receiver, tk)
		singles := l.singleDetect(own, scratch)
		newest := -1
		for _, j := range sround[k] {
			if j > newest {
				newest = j
			}
		}
		frame := EpisodeFrame{Index: k, At: tk, SenderFrame: newest}
		round := store.Round{
			Frame: k, Receiver: l.poseLabel(receiver), State: stateFor(own.pose, receiver, k),
			Own: l.cropFOV(own.scan.Cloud), FOVTop: detCfg.VerticalFOVTop, MaxRange: detCfg.MaxDetectionRange,
			// Warm-up — or a frame where no sender's broadcast is usable
			// yet: the receiver is on its own.
			Warmup: newest < 0,
		}
		if !round.Warmup {
			frame.RoundLatency = lps[newest].Plan.Ready()
			deltaD := 0.0
			for si, s := range senders {
				j := sround[k][si]
				if j < 0 {
					// Nothing of this sender's ever cleared the channel;
					// the receiver fuses the delivered subset without it.
					continue
				}
				tj := at(j)
				if age := tk - tj; age > frame.Staleness {
					frame.Staleness = age
				}
				cap := l.capture(s, tj)
				// Fusion consumes the capture's canonical encode; the wire
				// carried it (v2) or its delta stream (v3). Compensation
				// warps the cloud to this frame's consumption time, so it
				// re-encodes and transmits that.
				payload, err := l.payloadFor(cap, backend, det)
				if err != nil {
					return frameEval{}, fmt.Errorf("core: frame %d sender %d: %w", k, s, err)
				}
				sent := len(air[si][j].wire)
				if opts.Compensate {
					cloud := CompensateScan(sc, cap.scan, cap.pose, tj, tk)
					p, err := backend.Encode(fusion.SensorFrame{
						State: stateFor(cap.pose, s, j), Cloud: l.cropFOV(cloud), Detector: det,
					}, scratch)
					if err != nil {
						return frameEval{}, fmt.Errorf("core: frame %d sender %d: %w", k, s, err)
					}
					payload, sent = p.Data, len(p.Data)
				}
				frame.PayloadBytes += sent
				round.Payloads = append(round.Payloads, store.RoundPayload{Sender: l.poseLabel(s), State: stateFor(cap.pose, s, j), Data: payload})
				if d := cap.pose.T.DistXY(own.pose.T); d > deltaD {
					deltaD = d
				}
			}
			frame.Senders = len(round.Payloads)
			frame.Lost = len(senders) - len(round.Payloads)
			round.OverrideMaxDist, round.MaxDist = true, deltaD
			round.LatencyUS = frame.RoundLatency.Microseconds()
			round.StalenessUS = frame.Staleness.Microseconds()
			round.PayloadBytes = int64(frame.PayloadBytes)
			round.Lost = frame.Lost
		}
		ff, err := DetectFrame(sc.At(tk), receiver, participants, singles, round, backend, scratch)
		if err != nil {
			return frameEval{}, err
		}
		frame.Single, frame.Coop = ff.Single, ff.Coop
		return frameEval{frame, ff}, nil
	})
	if err != nil {
		return nil, err
	}

	// Phase 4 — the track layer is sequential by nature: frames feed the
	// tracker in timeline order, and the truth ↔ track join yields the
	// temporal metrics. Store records and telemetry are emitted from the
	// same loop — the one place the episode is already in timeline order.
	// Every metric value derives from sim time and byte counts, and the
	// telemetry handles are nil-safe, so an unmetered run skips nothing.
	m := opts.Metrics
	mFrames := m.Counter("episode_frames_total")
	mWarmups := m.Counter("episode_warmup_frames_total")
	mPayload := m.Counter("episode_payload_bytes_total")
	mFused := m.Counter("episode_fused_senders_total")
	mLost := m.Counter("episode_lost_senders_total")
	mDets := m.Counter("episode_detections_total")
	mLatency := m.Histogram("episode_round_latency_us", episodeLatencyBuckets...)
	mStale := m.Histogram("episode_staleness_us", episodeLatencyBuckets...)
	mICP := m.Histogram("episode_icp_correction_um", episodeICPBuckets...)

	tracker := track.New(track.DefaultConfig())
	res := &EpisodeResult{Scenario: sc, Case: c, DroppedSlots: dropped}
	assocFrames := make([]eval.FrameAssoc, 0, opts.Frames)
	for k, fe := range evals {
		ids := tracker.Step(fe.frame.At, fe.WorldDets)
		assocFrames = append(assocFrames, fe.Assoc.FrameAssoc(ids))
		res.Frames = append(res.Frames, fe.frame)

		mFrames.Add(1)
		if fe.frame.SenderFrame < 0 {
			mWarmups.Add(1)
		} else {
			mLatency.Observe(fe.frame.RoundLatency.Microseconds())
			mStale.Observe(fe.frame.Staleness.Microseconds())
			mFused.Add(int64(fe.frame.Senders))
			mLost.Add(int64(fe.frame.Lost))
			mPayload.Add(int64(fe.frame.PayloadBytes))
		}
		mDets.Add(int64(len(fe.Dets)))
		for _, corr := range fe.ICP {
			mICP.Observe(int64(corr * 1e6))
		}

		if opts.Sink != nil {
			// Sender broadcasts first, then the receiver's round, its
			// fused detections and the track states — the order a live
			// frame happens in. Frame payloads are the wire bytes; the
			// round's payloads are the exact bytes fusion consumed, so
			// replay stays byte-identical even when compensation
			// re-encoded per receiving frame.
			for si, s := range senders {
				if err := opts.Sink.WriteFrame(store.Frame{
					Frame: k, Sender: l.poseLabel(s), Seq: uint64(k + 1),
					State: stateFor(l.capture(s, fe.frame.At).pose, s, k), Payload: air[si][k].wire,
				}); err != nil {
					return nil, err
				}
			}
		}
		if err := opts.Sink.WriteFused(fe.Round, fe.Dets, tracker.Tracks()); err != nil {
			return nil, err
		}
	}
	res.Temporal = eval.Temporal(assocFrames)
	res.Tracks = len(tracker.Tracks())
	m.Gauge("episode_tracks_live").Set(int64(res.Tracks))
	return res, nil
}

// RunEpisode plays one episode over the scenario without sharing a
// capture cache — the one-shot convenience over NewEpisodeLab(sc).Run.
func RunEpisode(sc *scene.Scenario, opts EpisodeOptions) (*EpisodeResult, error) {
	return NewEpisodeLab(sc).Run(opts)
}

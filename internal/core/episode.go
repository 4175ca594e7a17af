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
	"cooper/internal/sim"
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
	// Case indexes Scenario.Cases (default 0, the N-way fleet case).
	Case int
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
	// value is the lossless channel and reproduces the clean timeline
	// byte for byte.
	Loss network.LossModel
	// Drift is the bound, in metres, of each vehicle's seeded
	// localization-error walk (scene.DriftWalk): reported GPS/IMU states
	// drift off the true poses while sensing, occlusion and ground truth
	// stay exact. Zero means exact localization.
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
	// warm-up). On a lossless channel every fused cloud shares one age;
	// under loss a sender whose recent slots dropped contributes an
	// older frame and stretches this.
	Staleness time.Duration
	// Senders is the number of fused sender clouds. Lost counts senders
	// with no usable frame by At — every broadcast of theirs so far was
	// dropped (or, on wire v3, undecodable for want of its keyframe) —
	// so the frame fused without them. Lost is always zero on a lossless
	// channel, including warm-up (nothing was lost; nothing had arrived
	// for anyone).
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
}

// MeanSingleRecall averages the single-shot recall over all frames.
func (r *EpisodeResult) MeanSingleRecall() float64 {
	return r.mean(func(f EpisodeFrame) float64 { return f.Single.Recall() })
}

// MeanCoopRecall averages the fused recall over all frames.
func (r *EpisodeResult) MeanCoopRecall() float64 {
	return r.mean(func(f EpisodeFrame) float64 { return f.Coop.Recall() })
}

// MeanCoopPrecision averages the fused precision over all frames.
func (r *EpisodeResult) MeanCoopPrecision() float64 {
	return r.mean(func(f EpisodeFrame) float64 { return f.Coop.Precision() })
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

// detectorConfig mirrors PoseVehicleSeeded's detector setup, pinned to
// one goroutine: episode parallelism fans out across frames instead.
func (l *EpisodeLab) detectorConfig() spod.Config {
	cfg := spod.DefaultConfig()
	cfg.VerticalFOVTop = l.sc.LiDAR.MaxElevation()
	cfg.MaxDetectionRange = AreaRange(l.sc.Dataset)
	cfg.Workers = 1
	return cfg
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
		seed := l.sc.Seed + int64(i)*997 + int64(t/time.Millisecond)*1000003
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
		e.dets, _ = spod.New(l.detectorConfig()).Detect(l.cropFOV(e.scan.Cloud), nil, s)
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
// the capture, so whichever frame job computes one first never shows in
// the output.
func (l *EpisodeLab) payloadFor(e *labEntry, backend fusion.Backend, det *spod.Detector, state fusion.VehicleState, s *spod.DetectorScratch) ([]byte, error) {
	if _, raw := backend.(fusion.RawBackend); raw {
		return e.payload, nil
	}
	e.featOnce.Do(func() {
		p, err := backend.Encode(fusion.SensorFrame{State: state, Cloud: l.cropFOV(e.scan.Cloud), Detector: det}, s)
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

// Run plays one episode: Frames fused frames at Hz. Per frame, every
// vehicle senses the moving world; the senders' frames are broadcast as
// one DSRC round per frame on the shared channel; and the receiver fuses
// the newest fully delivered round — stale by the round's transmission
// time plus Delay, quantised up to its frame grid — with its own fresh
// cloud, motion-compensating the stale clouds when enabled. Fused
// detections feed the track layer; ground truth is evaluated at each
// frame's timestamp.
//
// The timeline is driven on a sim.Clock (broadcast-ready events racing
// frame-fusion events); per-frame sensing, fusion and detection then fan
// out over Workers goroutines. Both the per-frame rows and the track
// metrics are byte-identical at any worker count.
func (l *EpisodeLab) Run(opts EpisodeOptions) (*EpisodeResult, error) {
	sc := l.sc
	if opts.Frames < 1 {
		return nil, fmt.Errorf("core: episode needs at least 1 frame, got %d", opts.Frames)
	}
	if opts.Hz <= 0 {
		opts.Hz = 10
	}
	if opts.Case < 0 || opts.Case >= len(sc.Cases) {
		return nil, fmt.Errorf("core: scenario %s has no cooperative case %d", sc.Name, opts.Case)
	}
	c := sc.Cases[opts.Case]
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

	// Localization drift: each participant owns a seeded bounded error
	// walk over the episode. Only reported GPS/IMU states drift — true
	// poses keep driving sensing, occlusion, compensation and ground
	// truth. Walks are precomputed sequentially in participant order, so
	// frame workers only ever index into them.
	var walks map[int][]scene.PoseError
	if opts.Drift > 0 {
		walks = make(map[int][]scene.PoseError, len(participants))
		for _, p := range participants {
			walks[p] = sc.DriftWalk(p, opts.Drift, opts.Frames)
		}
	}
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

	// Phase 1.5 — non-raw backends pre-encode every sender capture's
	// broadcast in parallel: the channel plan below needs the sizes, and
	// the frame fan-out reuses the cached bytes.
	det := spod.New(l.detectorConfig())
	if !rawBackend {
		var encJobs []capJob
		for k := 0; k < opts.Frames; k++ {
			for _, s := range senders {
				encJobs = append(encJobs, capJob{s, at(k)})
			}
		}
		encScratches := spod.NewScratches(parallel.WorkerCount(opts.Workers, len(encJobs)))
		if _, err := parallel.MapErrWorker(opts.Workers, len(encJobs), func(w, i int) (struct{}, error) {
			e := l.capture(encJobs[i].pose, encJobs[i].t)
			state := stateFor(e.pose, encJobs[i].pose, int(encJobs[i].t/period))
			_, err := l.payloadFor(e, backend, det, state, encScratches[w])
			return struct{}{}, err
		}); err != nil {
			return nil, err
		}
	}

	// Phase 1.6 — wire v3: each sender's captures delta-code as one CPD1
	// stream in timeline order, keyframes at the interval and deltas
	// between. Streams are independent per sender, so senders fan out in
	// parallel; within a stream the encoder state makes frame order
	// load-bearing, so the inner loop is sequential. Every frame is
	// decoded back and re-encoded to prove the reconstruction is
	// byte-identical to the canonical capture encode the fusion phase
	// consumes: v3 changes payload sizes (and therefore the delivery
	// timeline), never the fused bytes.
	var v3sizes [][]int   // [frame][sender slot] broadcast bytes
	var v3key [][]int     // [sender slot][frame] → keyframe the delta decodes from
	var v3wire [][][]byte // [sender slot][frame] wire bytes, kept only for the store
	if wireV3 {
		v3sizes = make([][]int, opts.Frames)
		for k := range v3sizes {
			v3sizes[k] = make([]int, len(senders))
		}
		v3key = make([][]int, len(senders))
		for si := range v3key {
			v3key[si] = make([]int, opts.Frames)
		}
		if opts.Sink != nil {
			v3wire = make([][][]byte, len(senders))
			for si := range v3wire {
				v3wire[si] = make([][]byte, opts.Frames)
			}
		}
		if err := parallel.ForErr(opts.Workers, len(senders), func(si int) error {
			enc := pointcloud.DeltaEncoder{Interval: opts.KeyframeInterval}
			var dec pointcloud.DeltaDecoder
			recon := pointcloud.GetCloud()
			defer pointcloud.PutCloud(recon)
			lastKey := 0
			for k := 0; k < opts.Frames; k++ {
				e := l.capture(senders[si], at(k))
				data, key, err := enc.Encode(l.cropFOV(e.scan.Cloud), uint64(k+1))
				if err != nil {
					return fmt.Errorf("core: delta-encoding pose %d frame %d: %w", senders[si], k, err)
				}
				if key {
					lastKey = k
				}
				v3key[si][k] = lastKey
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
				v3sizes[k][si] = len(data)
				if v3wire != nil {
					v3wire[si][k] = append([]byte(nil), data...)
				}
			}
			return nil
		}); err != nil {
			return nil, err
		}
	}

	// Phase 2 — the broadcast timeline on the sim clock. Round j (the
	// senders' frames captured at t_j) becomes fusable at
	// t_j + Plan.Ready(); each frame k fuses the newest round ready by
	// t_k. Ready events are scheduled before fusion events, so a round
	// landing exactly on a frame boundary is fused that frame. Slots are
	// planned from the capture encodes: compensation preserves the
	// point count, and the warp target depends on this very schedule, so
	// planning from compensated sizes would be circular.
	sched := episodeScheduler(opts.Hz, opts.Delay)
	plans := make([]network.Plan, opts.Frames)
	for j := 0; j < opts.Frames; j++ {
		sizes := make([]int, len(senders))
		for si, s := range senders {
			if wireV3 {
				sizes[si] = v3sizes[j][si]
				continue
			}
			e := l.capture(s, at(j))
			payload, err := l.payloadFor(e, backend, det, PoseState(e.pose, sc.LiDAR.MountHeight), nil)
			if err != nil {
				return nil, err
			}
			sizes[si] = len(payload)
		}
		plans[j] = sched.Plan(sizes)
	}
	clock := &sim.Clock{}
	available := -1
	rounds := make([]int, opts.Frames) // frame k → fused round index
	for j := 0; j < opts.Frames; j++ {
		j := j
		clock.Schedule(at(j)+plans[j].Ready(), func(time.Duration) {
			if j > available {
				available = j
			}
		})
	}
	for k := 0; k < opts.Frames; k++ {
		k := k
		clock.Schedule(at(k), func(time.Duration) { rounds[k] = available })
	}
	for clock.Step() {
	}

	// Phase 2.5 — the channel has its say. A lossy channel breaks the
	// round granularity: every slot has its own fate, so availability is
	// tracked per sender. Sender slot si's frame j is usable at frame k
	// when its slot was delivered (and, on wire v3, so was the keyframe
	// its delta decodes from) by t_k; each frame fuses every sender's
	// newest usable frame, however stale. The lossless path keeps the
	// round timeline above — which the zero-rate model reproduces
	// exactly, every DeliveredAt equalling the plan's Ready.
	lossy := opts.Loss.Enabled()
	sround := make([][]int, opts.Frames) // frame k → per-sender fused frame (-1 = none)
	if lossy {
		lps := make([]network.LossyPlan, opts.Frames)
		for j := range lps {
			lps[j] = opts.Loss.Round(int64(j), plans[j])
		}
		usableAt := func(j, si int) (time.Duration, bool) {
			d, ok := lps[j].AvailableAt(si)
			if !ok {
				return 0, false
			}
			t := at(j) + d
			if wireV3 {
				if kj := v3key[si][j]; kj != j {
					kd, ok := lps[kj].AvailableAt(si)
					if !ok {
						// The keyframe this delta decodes from was lost:
						// the frame arrived but cannot be reconstructed.
						return 0, false
					}
					if kt := at(kj) + kd; kt > t {
						t = kt
					}
				}
			}
			return t, true
		}
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
	} else {
		for k := range sround {
			sround[k] = make([]int, len(senders))
			for si := range senders {
				sround[k][si] = rounds[k]
			}
		}
	}

	// Phase 3 — frames fan out: sense → compensate → encode → align →
	// merge → detect → score, all pure per-frame work. Each worker owns
	// one detector scratch shared by its frames' single-shot and fused
	// passes.
	type frameEval struct {
		frame     EpisodeFrame
		assoc     TruthAssoc
		worldDets []spod.Detection
		dets      []spod.Detection // fused (or warm-up single) detections
		icp       []float64        // ICP correction residuals, metres
		round     store.Round      // populated when opts.Sink != nil
	}
	detCfg := l.detectorConfig()
	scratches := spod.NewScratches(parallel.WorkerCount(opts.Workers, opts.Frames))
	evals, err := parallel.MapErrWorker(opts.Workers, opts.Frames, func(w, k int) (frameEval, error) {
		scratch := scratches[w]
		tk := at(k)
		snapEval := sc.At(tk)
		own := l.capture(receiver, tk)
		ownCloud := l.cropFOV(own.scan.Cloud)
		recvState := stateFor(own.pose, receiver, k)

		newest := -1
		for _, j := range sround[k] {
			if j > newest {
				newest = j
			}
		}
		fe := frameEval{frame: EpisodeFrame{Index: k, At: tk, SenderFrame: newest}}
		singles := l.singleDetect(own, scratch)

		var coopDets []spod.Detection
		if newest < 0 {
			// Warm-up — or, under loss, a frame where every sender's every
			// broadcast so far was dropped. The receiver is on its own; the
			// track layer still consumes the frames — one truth match
			// scores both columns.
			coopDets = singles
			fe.assoc = EvaluateDetectionsAssoc(snapEval, receiver, nil, singles)
			fe.frame.Single = fe.assoc.Stats
			fe.frame.Coop = fe.assoc.Stats
			if opts.Sink != nil {
				fe.round = store.Round{
					Frame: k, Receiver: l.poseLabel(receiver), State: recvState,
					Own: ownCloud, Warmup: true,
					FOVTop: detCfg.VerticalFOVTop, MaxRange: detCfg.MaxDetectionRange,
				}
			}
		} else {
			fe.frame.Single = EvaluateDetections(snapEval, receiver, nil, singles)
			fe.frame.RoundLatency = plans[newest].Ready()
			payloads := make([]fusion.Payload, 0, len(senders))
			deltaD := 0.0
			for si, s := range senders {
				j := sround[k][si]
				if j < 0 {
					// Nothing of this sender's ever cleared the channel;
					// the receiver fuses the delivered subset without it.
					continue
				}
				tj := at(j)
				if age := tk - tj; age > fe.frame.Staleness {
					fe.frame.Staleness = age
				}
				cap := l.capture(s, tj)
				// Compensation warps the cloud to this frame's consumption
				// time, so it must re-encode; the uncompensated broadcast
				// is exactly the capture's cached encode.
				payload, err := l.payloadFor(cap, backend, det, stateFor(cap.pose, s, j), scratch)
				if err != nil {
					return frameEval{}, fmt.Errorf("core: frame %d sender %d: %w", k, s, err)
				}
				if opts.Compensate {
					cloud := CompensateScan(sc, cap.scan, cap.pose, tj, tk)
					p, err := backend.Encode(fusion.SensorFrame{
						State: stateFor(cap.pose, s, j), Cloud: l.cropFOV(cloud), Detector: det,
					}, scratch)
					if err != nil {
						return frameEval{}, fmt.Errorf("core: frame %d sender %d: %w", k, s, err)
					}
					payload = p.Data
				}
				if wireV3 {
					// The wire carried the delta stream; fusion consumes the
					// canonical reconstruction (verified byte-identical above).
					fe.frame.PayloadBytes += v3sizes[j][si]
				} else {
					fe.frame.PayloadBytes += len(payload)
				}
				payloads = append(payloads, fusion.Payload{SenderID: l.poseLabel(s), State: stateFor(cap.pose, s, j), Data: payload})
				if d := cap.pose.T.DistXY(own.pose.T); d > deltaD {
					deltaD = d
				}
			}
			fe.frame.Senders = len(payloads)
			fe.frame.Lost = len(senders) - len(payloads)
			in, err := backend.Fuse(fusion.SensorFrame{State: recvState, Cloud: ownCloud, Detector: det}, payloads)
			if err != nil {
				return frameEval{}, fmt.Errorf("core: frame %d: %w", k, err)
			}
			in.MaxDist = deltaD
			coopDets, _ = in.Detect(l.detectorConfig(), scratch)
			fe.assoc = EvaluateDetectionsAssoc(snapEval, receiver, participants, coopDets)
			fe.frame.Coop = fe.assoc.Stats
			fe.icp = in.ICPCorrections
			if opts.Sink != nil {
				rp := make([]store.RoundPayload, len(payloads))
				for i, p := range payloads {
					rp[i] = store.RoundPayload{Sender: p.SenderID, State: p.State, Data: p.Data}
				}
				fe.round = store.Round{
					Frame: k, Receiver: l.poseLabel(receiver), State: recvState,
					Own: ownCloud, OverrideMaxDist: true, MaxDist: deltaD,
					FOVTop: detCfg.VerticalFOVTop, MaxRange: detCfg.MaxDetectionRange,
					LatencyUS:    fe.frame.RoundLatency.Microseconds(),
					StalenessUS:  fe.frame.Staleness.Microseconds(),
					PayloadBytes: int64(fe.frame.PayloadBytes),
					Lost:         fe.frame.Lost,
					Payloads:     rp,
				}
			}
		}

		fe.dets = coopDets
		fe.worldDets = WorldDetections(coopDets, own.pose, sc.LiDAR.MountHeight)
		return fe, nil
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
	res := &EpisodeResult{Scenario: sc, Case: c}
	assocFrames := make([]eval.FrameAssoc, 0, opts.Frames)
	for k, fe := range evals {
		ids := tracker.Step(fe.frame.At, fe.worldDets)
		assocFrames = append(assocFrames, fe.assoc.FrameAssoc(ids))
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
		mDets.Add(int64(len(fe.dets)))
		for _, corr := range fe.icp {
			mICP.Observe(int64(corr * 1e6))
		}

		if opts.Sink != nil {
			// Sender broadcasts first, then the receiver's round, its
			// fused detections and the track states — the order a live
			// frame happens in. Frame payloads are the wire bytes (the
			// delta stream on v3, the capture encode otherwise); the
			// round's payloads are the exact bytes fusion consumed, so
			// replay stays byte-identical even when compensation
			// re-encoded per receiving frame.
			for si, s := range senders {
				e := l.capture(s, fe.frame.At)
				wire := e.payload
				if wireV3 {
					wire = v3wire[si][k]
				} else if !rawBackend {
					var err error
					if wire, err = l.payloadFor(e, backend, det, stateFor(e.pose, s, k), nil); err != nil {
						return nil, err
					}
				}
				if err := opts.Sink.WriteFrame(store.Frame{
					Frame: k, Sender: l.poseLabel(s), Seq: uint64(k + 1),
					State: stateFor(e.pose, s, k), Payload: wire,
				}); err != nil {
					return nil, err
				}
			}
			if err := opts.Sink.WriteRound(fe.round); err != nil {
				return nil, err
			}
			if err := opts.Sink.WriteDetections(store.Detections{Frame: k, Receiver: fe.round.Receiver, Dets: fe.dets}); err != nil {
				return nil, err
			}
			if err := opts.Sink.WriteTracks(store.Tracks{Frame: k, Receiver: fe.round.Receiver, Tracks: store.TrackStates(tracker.Tracks())}); err != nil {
				return nil, err
			}
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

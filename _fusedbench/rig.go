package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"cooper/internal/core"
	"cooper/internal/fusion"
	"cooper/internal/hub"
	"cooper/internal/network"
	"cooper/internal/parallel"
	"cooper/internal/pointcloud"
	"cooper/internal/spod"
	"cooper/internal/store"
	"cooper/internal/telemetry"
	"cooper/internal/track"
)

// rig is one live hub with its fleet: the egos' TCP sessions, the
// in-process publishers' sequence and delta state, per-ego trackers and
// per-worker detector scratches. Every tick it drives goes through the
// same public calls core's episode engine and the hub selftest make.
type rig struct {
	w       workload
	in      *inputs
	workers int

	reg     *telemetry.Registry
	sched   network.Scheduler
	h       *hub.Hub
	served  chan struct{}
	clients [egos]*hub.Client

	seq      []uint64                  // in-process publishers' sequence numbers
	enc      []pointcloud.DeltaEncoder // in-process publishers' CPD1 streams
	retries  []uint64                  // in-process keyframe retries
	trackers [egos]*track.Tracker
	scratch  []*spod.DetectorScratch

	// mirror re-encodes each ego's CPD1 stream off the clock, in step
	// with its client's encoder (mirrorSeq is the client's sequence).
	mirror    [egos]pointcloud.DeltaEncoder
	mirrorSeq [egos]uint64

	// log is the current episode-log segment (delta-icp only). A segment
	// holds one pass over the inputs; it is sealed, replayed and reset
	// off the clock at the end of the pass.
	log       *bytes.Buffer
	ew        *store.EpisodeWriter
	logBytes  int64
	replayed  int   // rounds replayed so far
	badRepl   int   // rounds that did not reproduce
	replayErr error // first error sealing or replaying a segment

	off offClock
	tr  *tracer
}

// offClock totals the work a rig does between ticks, outside every timed
// span: mirroring the egos' CPD1 streams and sealing and replaying
// episode-log segments. Loops subtract it from their wall time and
// allocation counts.
type offClock struct {
	s                       float64
	alloc, mallocs, pauseNs uint64
}

func (a offClock) minus(b offClock) offClock {
	return offClock{a.s - b.s, a.alloc - b.alloc, a.mallocs - b.mallocs, a.pauseNs - b.pauseNs}
}

// offTheClock runs fn and adds its wall time, allocations and GC pauses
// to the rig's off-clock totals.
func (r *rig) offTheClock(fn func()) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	fn()
	r.off.s += time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	r.off.alloc += m1.TotalAlloc - m0.TotalAlloc
	r.off.mallocs += m1.Mallocs - m0.Mallocs
	r.off.pauseNs += m1.PauseTotalNs - m0.PauseTotalNs
}

// newRig starts a hub on a loopback port and opens the egos' sessions.
func newRig(w workload, in *inputs, workers int) (*rig, error) {
	r := &rig{
		w:       w,
		in:      in,
		workers: workers,
		reg:     telemetry.New(),
		sched:   network.DefaultScheduler(),
		served:  make(chan struct{}),
		seq:     make([]uint64, w.fleet),
		enc:     make([]pointcloud.DeltaEncoder, w.fleet),
		retries: make([]uint64, w.fleet),
		scratch: spod.NewScratches(workers),
		tr:      newTracer(false),
	}
	r.h = hub.New(hub.Config{Scheduler: r.sched, MaxSenders: w.fleet, Loss: in.loss, Metrics: r.reg})
	l, err := network.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go func() {
		defer close(r.served)
		_ = r.h.Serve(l) // returns nil once Close stops it
	}()
	for e := range r.clients {
		cl, _, err := hub.Connect(l.Addr(), in.labels[e], in.state(e, 0))
		if err != nil {
			r.close()
			return nil, fmt.Errorf("connecting ego %s: %w", in.labels[e], err)
		}
		r.clients[e] = cl
		r.trackers[e] = track.New(track.DefaultConfig())
	}
	if w.store {
		r.log = &bytes.Buffer{}
		if err := r.openSegment(); err != nil {
			r.close()
			return nil, err
		}
	}
	return r, nil
}

// close ends every session, stops the hub and waits for its serve loop.
func (r *rig) close() {
	for _, cl := range r.clients {
		if cl != nil {
			cl.Close()
		}
	}
	r.h.Close()
	<-r.served
}

// openSegment starts an episode-log segment in the (empty) log buffer.
func (r *rig) openSegment() error {
	useICP := false
	if rb, ok := r.w.backend.(fusion.RawBackend); ok {
		useICP = rb.UseICP
	}
	ew, err := store.NewEpisodeWriter(r.log, store.Header{
		Label:    r.w.name,
		Scenario: r.in.name,
		Frames:   len(r.in.ticks),
		Hz:       simHz,
		Backend:  r.w.backend.Name(),
		UseICP:   useICP,
		Wire:     string(r.w.wire),
	})
	r.ew = ew
	return err
}

// sealSegment closes the current segment, replays it and reopens the
// buffer, which keeps its capacity, for the next segment. It runs off
// the clock at the end of every pass, so the log never holds more than
// one pass and the heap does not grow with the run's length.
func (r *rig) sealSegment() {
	err := r.ew.Close()
	r.logBytes += r.ew.Bytes()
	if err == nil {
		var rounds, bad int
		rounds, bad, err = r.replaySegment(r.log.Bytes())
		r.replayed += rounds
		r.badRepl += bad
	}
	r.log.Reset()
	if err == nil {
		err = r.openSegment()
	}
	if err != nil && r.replayErr == nil {
		r.replayErr = err
	}
	runtime.GC() // collect the replay's garbage before the next tick
}

// publishRec is one vehicle's publish in one tick.
type publishRec struct {
	ms         float64
	wireBytes  int
	cpq1Bytes  int
	deltaBytes int    // CPD1 bytes, retries included
	retried    bool   // a TCP ego's delta was rejected and re-keyed
	payload    []byte // the wire bytes (first pass only, once logged)
	err        error
}

// frameRec is one ego frame: its latency, what the round served, and the
// fused detections, scored after the clock stops.
type frameRec struct {
	g, ego       int
	ms           float64
	sizes        []int
	participants []int
	dets         []spod.Detection
	stats        spod.Stats
	icp          []float64
	served       []hub.RoundFrame // first pass only, for verifyServed
	err          error
}

// tickRec is one tick of the closed loop.
type tickRec struct {
	g  int
	ms float64
	// stealS is the CPU time the hypervisor took from this machine during
	// the tick and cpuS the process CPU time the tick used.
	stealS, cpuS float64
	publishes    []publishRec
	frames       [egos]frameRec
}

// tick runs one closed-loop tick at global tick index g: the publish
// phase, then the ego phase, then the tick's published-frame records.
func (r *rig) tick(g int) tickRec {
	steal0, cpu0 := hostSteal(), processCPU()
	start := time.Now()
	rec := tickRec{g: g, publishes: make([]publishRec, r.w.fleet)}
	ti := &r.in.ticks[g%len(r.in.ticks)]

	phase := r.tr.begin("tick.publish_phase", -1, g, -1)
	parallel.ForWorker(r.workers, r.w.fleet, func(wk, i int) {
		rec.publishes[i] = r.publish(wk, g, i, ti, phase)
	})
	r.tr.end(phase)

	parallel.ForWorker(r.workers, egos, func(wk, e int) {
		rec.frames[e] = r.egoFrame(wk, g, e, ti)
	})

	if r.ew != nil {
		_ = r.tr.do("store.append_frames", -1, g, -1, func() error {
			for i, p := range rec.publishes {
				if p.err != nil {
					continue
				}
				if err := r.ew.WriteFrame(store.Frame{Frame: g, Sender: r.in.labels[i],
					Seq: uint64(g + 1), State: r.in.state(i, g), Payload: p.payload}); err != nil {
					rec.publishes[i].err = err
				}
			}
			return nil
		})
	}
	rec.ms = msSince(start)
	rec.stealS, rec.cpuS = hostSteal()-steal0, processCPU()-cpu0

	passEnd := r.ew != nil && (g+1)%len(r.in.ticks) == 0
	if r.w.wire == wireCPD1 || passEnd {
		r.offTheClock(func() {
			if r.w.wire == wireCPD1 {
				r.mirrorEgoDeltas(ti, &rec)
			}
			if passEnd {
				r.sealSegment()
			}
		})
	}
	if g >= len(r.in.ticks) {
		// Logged above; only the first pass keeps them for verifyServed.
		for i := range rec.publishes {
			rec.publishes[i].payload = nil
		}
	}
	return rec
}

// mirrorEgoDeltas re-encodes each ego's CPD1 publish on a mirror of its
// client's DeltaEncoder. PublishDelta reports only the payload that
// succeeded; when the hub rejected a delta and the client re-keyed, the
// mirror supplies the rejected delta's size, so the egos' uplink bytes
// count both attempts as the in-process publishers' do. The mirror's
// final payload must equal the one the client sent.
func (r *rig) mirrorEgoDeltas(ti *tickInput, rec *tickRec) {
	for e := range egos {
		r.mirrorSeq[e]++
		p := &rec.publishes[e]
		if p.err != nil {
			continue
		}
		cloud, seq := ti.frames[e].Cloud, r.mirrorSeq[e]
		payload, _, err := r.mirror[e].Encode(cloud, seq)
		if err == nil && p.retried {
			p.wireBytes += len(payload)
			r.mirror[e].ForceKeyframe()
			payload, _, err = r.mirror[e].Encode(cloud, seq)
		}
		if err == nil && !bytes.Equal(payload, p.payload) {
			err = fmt.Errorf("CPD1 mirror diverged from the client's payload (%d B vs %d B)", len(payload), len(p.payload))
		}
		p.err = err
		p.deltaBytes = p.wireBytes
	}
}

// publish encodes vehicle i's frame and publishes it until the hub holds
// it: over the vehicle's TCP session for egos, in-process through
// Hub.Publish (the call the session handler makes) for the rest.
func (r *rig) publish(wk, g, i int, ti *tickInput, phase int) publishRec {
	start := time.Now()
	rec := publishRec{cpq1Bytes: ti.cpq1Bytes[i]}
	sp := r.tr.begin("publish", phase, g, -1)
	rec.err = r.publishBody(wk, g, i, ti, sp, &rec)
	r.tr.end(sp)
	rec.ms = msSince(start)
	return rec
}

func (r *rig) publishBody(wk, g, i int, ti *tickInput, sp int, rec *publishRec) error {
	label := r.in.labels[i]
	state := r.in.state(i, g)
	frame := ti.frames[i]
	frame.State = state

	if r.w.wire == wireCPD1 {
		if i < egos {
			cl := r.clients[i]
			retries := cl.KeyframeRetries()
			err := r.tr.do("hub.publish_rtt", sp, g, -1, func() error {
				_, n, err := cl.PublishDelta(state, frame.Cloud)
				rec.wireBytes = n
				return err
			})
			rec.retried = cl.KeyframeRetries() > retries
			rec.payload = cl.LastWirePayload()
			return err
		}
		r.seq[i]++
		seq := r.seq[i]
		send := func() error {
			var payload []byte
			if err := r.tr.do("pointcloud.delta_encode", sp, g, -1, func() (err error) {
				payload, _, err = r.enc[i].Encode(frame.Cloud, seq)
				return err
			}); err != nil {
				return err
			}
			rec.wireBytes += len(payload)
			rec.deltaBytes += len(payload)
			rec.payload = payload
			return r.tr.do("hub.publish", sp, g, -1, func() error {
				_, err := r.h.Publish(label, state, payload, seq)
				return err
			})
		}
		err := send()
		if err != nil && strings.Contains(err.Error(), "keyframe") {
			// The hub lost this sender's keyframe state (a dropped
			// keyframe): re-key in-band, as Client.PublishDelta does.
			r.retries[i]++
			r.enc[i].ForceKeyframe()
			err = send()
		}
		return err
	}

	var p fusion.Payload
	if err := r.tr.do("fusion.encode", sp, g, -1, func() (err error) {
		p, err = r.w.backend.Encode(frame, r.scratch[wk])
		return err
	}); err != nil {
		return err
	}
	rec.wireBytes = len(p.Data)
	rec.payload = p.Data
	if i < egos {
		cl := r.clients[i]
		return r.tr.do("hub.publish_rtt", sp, g, -1, func() (err error) {
			if r.w.wire == wireCPF3 {
				_, err = cl.PublishFeatures(state, p.Data)
			} else {
				_, err = cl.Publish(state, p.Data)
			}
			return err
		})
	}
	r.seq[i]++
	seq := r.seq[i]
	return r.tr.do("hub.publish", sp, g, -1, func() error {
		_, err := r.h.Publish(label, state, p.Data, seq)
		return err
	})
}

// egoFrame is one ego's fused frame: round request, fuse, detect, world
// transform, track update and (delta-icp) episode-log append.
func (r *rig) egoFrame(wk, g, e int, ti *tickInput) frameRec {
	start := time.Now()
	rec := frameRec{g: g, ego: e}
	fid := g*egos + e
	root := r.tr.begin("frame", -1, g, fid)
	err := r.egoFrameBody(wk, g, e, ti, root, fid, &rec)
	r.tr.end(root)
	rec.ms = msSince(start)
	rec.err = err
	return rec
}

func (r *rig) egoFrameBody(wk, g, e int, ti *tickInput, root, fid int, rec *frameRec) error {
	cl := r.clients[e]
	reqState := r.in.state(e, g)
	var served []hub.RoundFrame
	if err := r.tr.do("hub.round_rtt", root, g, fid, func() (err error) {
		if r.w.wire == wireCPF3 {
			served, err = cl.RequestFeatureRound(reqState, r.w.k, r.w.budgets[e])
		} else {
			served, err = cl.RequestRound(reqState, r.w.k, r.w.budgets[e])
		}
		return err
	}); err != nil {
		return err
	}
	payloads := make([]fusion.Payload, len(served))
	rec.participants = append(rec.participants, e)
	for j, rf := range served {
		p, ok := r.in.poseIndex(rf.Sender)
		if !ok || p == e || (r.w.wire == wireCPF3) != spod.IsFeaturePayload(rf.Payload) {
			return fmt.Errorf("round shape: ego %d served %q", e, rf.Sender)
		}
		payloads[j] = fusion.Payload{SenderID: rf.Sender, State: rf.State, Data: rf.Payload}
		rec.sizes = append(rec.sizes, len(rf.Payload))
		rec.participants = append(rec.participants, p)
	}
	if g < len(r.in.ticks) {
		rec.served = served
	}
	// Under publish loss a sender whose every publish so far was dropped
	// has nothing cached to serve; otherwise the round is exactly k wide.
	if want := min(r.w.k, r.w.fleet-1); len(served) > want || (!r.in.loss.Enabled() && len(served) != want) {
		return fmt.Errorf("round shape: ego %d served %d senders, want %d", e, len(served), want)
	}

	recv := ti.frames[e]
	recv.State = reqState
	var in *fusion.FusedInput
	if err := r.tr.do("fusion.fuse", root, g, fid, func() (err error) {
		in, err = r.w.backend.Fuse(recv, payloads)
		return err
	}); err != nil {
		return err
	}
	rec.icp = in.ICPCorrections
	cfg := recv.Detector.Config()
	_ = r.tr.do("spod.detect", root, g, fid, func() error {
		rec.dets, rec.stats = in.Detect(cfg, r.scratch[wk])
		return nil
	})
	var world []spod.Detection
	_ = r.tr.do("core.world", root, g, fid, func() error {
		world = core.WorldDetections(rec.dets, ti.snap.Poses[e], ti.snap.LiDAR.MountHeight)
		return nil
	})
	at := time.Duration(float64(g) / simHz * float64(time.Second))
	_ = r.tr.do("track.step", root, g, fid, func() error {
		r.trackers[e].Step(at, world)
		return nil
	})
	if r.ew == nil {
		return nil
	}
	return r.tr.do("store.append", root, g, fid, func() error {
		return r.appendRound(g, e, recv, cfg, payloads, rec)
	})
}

// appendRound writes one ego frame's round, detections and track state
// to the episode log, in the form store.ReplayEpisode re-verifies.
func (r *rig) appendRound(g, e int, recv fusion.SensorFrame, cfg spod.Config, payloads []fusion.Payload, rec *frameRec) error {
	label := r.in.labels[e]
	rp := make([]store.RoundPayload, len(payloads))
	total := 0
	for j, p := range payloads {
		rp[j] = store.RoundPayload{Sender: p.SenderID, State: p.State, Data: p.Data}
		total += len(p.Data)
	}
	if err := r.ew.WriteRound(store.Round{
		Frame:        g,
		Receiver:     label,
		State:        recv.State,
		Own:          recv.Cloud,
		FOVTop:       cfg.VerticalFOVTop,
		MaxRange:     cfg.MaxDetectionRange,
		LatencyUS:    r.sched.Plan(rec.sizes).Completion().Microseconds(),
		PayloadBytes: int64(total),
		Payloads:     rp,
	}); err != nil {
		return err
	}
	if err := r.ew.WriteDetections(store.Detections{Frame: g, Receiver: label, Dets: rec.dets}); err != nil {
		return err
	}
	tracks := r.trackers[e].Tracks()
	ts := make([]store.TrackState, len(tracks))
	for j, t := range tracks {
		ts[j] = store.TrackState{ID: t.ID, Box: t.Box, VelX: t.Vel.X, VelY: t.Vel.Y, Hits: t.Hits, Misses: t.Misses}
	}
	return r.ew.WriteTracks(store.Tracks{Frame: g, Receiver: label, Tracks: ts})
}

// replaySegment re-runs every round of one sealed episode-log segment
// through store.ReplayEpisode, each ego's rounds on their own worker,
// requiring byte-identical detections. It returns the rounds replayed and
// how many failed to reproduce.
func (r *rig) replaySegment(seg []byte) (rounds, bad int, err error) {
	// Replay decodes the whole segment; a tighter GC target keeps its
	// peak memory near the segment's own size.
	defer debug.SetGCPercent(debug.SetGCPercent(25))
	ep, err := store.ReadEpisode(bytes.NewReader(seg))
	if err != nil {
		return 0, 0, err
	}
	stats := make([]store.ReplayStats, egos)
	err = parallel.ForErr(r.workers, egos, func(e int) (err error) {
		part := &store.Episode{Header: ep.Header}
		for _, rd := range ep.Rounds {
			if rd.Receiver == r.in.labels[e] {
				part.Rounds = append(part.Rounds, rd)
			}
		}
		for _, d := range ep.Detections {
			if d.Receiver == r.in.labels[e] {
				part.Detections = append(part.Detections, d)
			}
		}
		_, stats[e], err = store.ReplayEpisode(part)
		return err
	})
	for _, st := range stats {
		rounds += st.Rounds
		bad += st.Rounds - st.Matched
	}
	return rounds, bad, err
}

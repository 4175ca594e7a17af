package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"cooper/internal/core"
	"cooper/internal/network"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// timed returns the ticks whose timings count: the clean ones. When the
// host was so busy that they hold fewer ego frames than the tail
// percentile needs, it returns instead the fewest ticks that hold enough,
// taken in order of least steal per tick second (leastStolen is then
// true).
func (res *loopResult) timed() (ticks []tickRec, leastStolen bool) {
	var clean []tickRec
	for _, t := range res.ticks {
		if t.clean() {
			clean = append(clean, t)
		}
	}
	if len(clean)*egos >= res.minFrames {
		return clean, false
	}
	byRate := append([]tickRec(nil), res.ticks...)
	sort.SliceStable(byRate, func(i, j int) bool {
		return byRate[i].stealS/byRate[i].ms < byRate[j].stealS/byRate[j].ms
	})
	return byRate[:min((res.minFrames+egos-1)/egos, len(byRate))], true
}

// timingNote says which ticks the loop's timings were taken over.
func (res *loopResult) timingNote() string {
	clean := 0
	for _, t := range res.ticks {
		if t.clean() {
			clean++
		}
	}
	note := fmt.Sprintf("%d of %d timed ticks clean (%.1f%%); ", clean, len(res.ticks),
		100*ratio(float64(clean), float64(len(res.ticks))))
	if res.capped {
		note += fmt.Sprintf("the loop stopped at its %gx wall-time cap; ", maxWallFactor)
	}
	if timed, leastStolen := res.timed(); leastStolen {
		return note + fmt.Sprintf("timings taken over the %d least-stolen ticks, because fewer than %d ego frames were clean",
			len(timed), res.minFrames)
	}
	return note + "timings taken over the clean ones"
}

// tickSet indexes ticks by their global tick number.
func tickSet(ticks []tickRec) map[int]bool {
	set := make(map[int]bool, len(ticks))
	for _, t := range ticks {
		set[t.g] = true
	}
	return set
}

// frames flattens ticks' ego frames.
func frames(ticks []tickRec) []frameRec {
	out := make([]frameRec, 0, len(ticks)*egos)
	for _, t := range ticks {
		out = append(out, t.frames[:]...)
	}
	return out
}

func frameMS(ticks []tickRec) []float64 {
	var ms []float64
	for _, f := range frames(ticks) {
		ms = append(ms, f.ms)
	}
	return ms
}

func tickMS(ticks []tickRec) []float64 {
	ms := make([]float64, len(ticks))
	for i, t := range ticks {
		ms[i] = t.ms
	}
	return ms
}

// endToEnd computes the user-visible metrics from the untraced loop:
// timings over its clean ticks, bytes, quality and memory over all.
func (o *runOutcome) endToEnd() metrics {
	res := o.plain
	m := metrics{}
	timed, _ := res.timed()
	all := frames(res.ticks)
	nFrames := float64(len(all))

	fms := frameMS(timed)
	m.set("frame_ms_p50", "ms", quantile(fms, 0.5))
	m.set("frame_ms_p90", "ms", quantile(fms, 0.9))
	var pubMS []float64
	var cpuS float64
	for _, t := range timed {
		cpuS += t.cpuS
		for _, p := range t.publishes {
			pubMS = append(pubMS, p.ms)
		}
	}
	m.set("publish_ms_p50", "ms", quantile(pubMS, 0.5))
	m.set("publish_ms_p90", "ms", quantile(pubMS, 0.9))
	m.set("frames_per_s", "frames/s", float64(len(fms))/(sum(tickMS(timed))/1000))
	m.set("cpu_ms_per_frame", "ms", 1000*cpuS/float64(len(fms)))

	var uplink, publishes float64
	for _, t := range res.ticks {
		for _, p := range t.publishes {
			uplink += float64(p.wireBytes)
			publishes++
		}
	}
	m.set("uplink_bytes_per_frame", "B", uplink/publishes)

	var downlink float64
	var dsrc []float64
	sched := network.DefaultScheduler()
	for _, f := range all {
		for _, b := range f.sizes {
			downlink += float64(b)
		}
		dsrc = append(dsrc, float64(sched.Plan(f.sizes).Completion())/float64(time.Millisecond))
	}
	m.set("downlink_bytes_per_frame", "B", downlink/nFrames)
	m.set("dsrc_round_ms_p90", "ms", quantile(dsrc, 0.9))

	recall, precision := o.score(all)
	m.set("coop_recall", "ratio", recall)
	m.set("coop_precision", "ratio", precision)
	m.set("setup_s", "s", quantile(o.setupS, 0.5))
	m.set("alloc_mb_per_frame", "MB", float64(res.mem.TotalAlloc)/1e6/nFrames)
	m.set("allocs_per_frame", "count", float64(res.mem.Mallocs)/nFrames)
	return m
}

// score evaluates every frame's fused detections against ground truth,
// off the clock. Recall averages over frames with in-area truth cars,
// precision over frames with detections; frames without either have no
// defined ratio and are skipped.
func (o *runOutcome) score(frames []frameRec) (recall, precision float64) {
	var rs, ps []float64
	for _, f := range frames {
		if f.err != nil {
			continue
		}
		snap := o.in.ticks[f.g%len(o.in.ticks)].snap
		st := core.EvaluateDetections(snap, f.ego, f.participants, f.dets)
		if st.TP+st.FN > 0 {
			rs = append(rs, st.Recall())
		}
		if st.TP+st.FP > 0 {
			ps = append(ps, st.Precision())
		}
	}
	return ratio(sum(rs), float64(len(rs))), ratio(sum(ps), float64(len(ps)))
}

// perLayer computes the traced run's per-layer breakdown.
func (o *runOutcome) perLayer() metrics {
	res := o.traced
	m := metrics{}
	timed, _ := res.timed()
	clean := tickSet(timed)
	all := frames(res.ticks)
	nFrames := float64(len(all))
	self := selfTimes(res.spans, clean)
	dur := durations(res.spans, clean)
	p50 := func(name string) float64 { return quantile(self[name], 0.5) }

	m.set("lidar.scan_ms_p50", "ms", quantile(o.in.scanMS, 0.5))
	m.set("fusion.encode_ms_p50", "ms", p50("fusion.encode"))
	m.set("pointcloud.delta_encode_ms_p50", "ms", p50("pointcloud.delta_encode"))
	var deltaB, cpq1B float64
	for _, t := range res.ticks {
		for _, p := range t.publishes {
			if p.deltaBytes > 0 {
				deltaB += float64(p.deltaBytes)
				cpq1B += float64(p.cpq1Bytes)
			}
		}
	}
	m.set("pointcloud.delta_ratio", "ratio", ratio(deltaB, cpq1B))
	m.set("hub.publish_ms_p50", "ms", p50("hub.publish"))
	m.set("hub.publish_rtt_ms_p50", "ms", p50("hub.publish_rtt"))
	m.set("hub.round_rtt_ms_p50", "ms", p50("hub.round_rtt"))
	m.set("hub.round_rtt_ms_p90", "ms", quantile(self["hub.round_rtt"], 0.9))

	var catTotal float64
	for c := 1; c <= 4; c++ {
		catTotal += float64(res.counters[fmt.Sprintf("hub_round_payload_bytes_cat%d_total", c)])
	}
	for c := 1; c <= 4; c++ {
		b := float64(res.counters[fmt.Sprintf("hub_round_payload_bytes_cat%d_total", c)])
		m.set(fmt.Sprintf("roi.rung_share.cat%d", c), "ratio", ratio(b, catTotal))
	}
	m.set("hub.publish_drops", "count/frame", float64(res.counters["hub_publish_drops_total"])/nFrames)
	m.set("hub.keyframe_misses", "count/frame", float64(res.counters["hub_keyframe_misses_total"])/nFrames)
	m.set("client.keyframe_retries", "count/frame", float64(res.retries)/nFrames)
	m.set("hub.round_stale_senders", "count/frame", float64(res.counters["hub_round_stale_senders_total"])/nFrames)

	m.set("fusion.fuse_ms_p50", "ms", p50("fusion.fuse"))
	var icp, pre, vox, conv, prop, fit, pts, cands []float64
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	for _, f := range frames(timed) {
		icp = append(icp, f.icp...)
		pre = append(pre, ms(f.stats.PreprocessTime))
		vox = append(vox, ms(f.stats.VoxelTime))
		conv = append(conv, ms(f.stats.ConvTime))
		prop = append(prop, ms(f.stats.ProposalTime))
		fit = append(fit, ms(f.stats.FitTime))
		pts = append(pts, float64(f.stats.InputPoints))
		cands = append(cands, float64(f.stats.CandidateCount))
	}
	m.set("fusion.icp_correction_m_p50", "m", quantile(icp, 0.5))
	m.set("spod.detect_ms_p50", "ms", p50("spod.detect"))
	m.set("spod.preprocess_ms_p50", "ms", quantile(pre, 0.5))
	m.set("spod.voxel_ms_p50", "ms", quantile(vox, 0.5))
	m.set("spod.conv_ms_p50", "ms", quantile(conv, 0.5))
	m.set("spod.proposal_ms_p50", "ms", quantile(prop, 0.5))
	m.set("spod.fit_ms_p50", "ms", quantile(fit, 0.5))
	m.set("spod.input_points_p50", "count", quantile(pts, 0.5))
	m.set("spod.candidates_p50", "count", quantile(cands, 0.5))
	m.set("core.world_ms_p50", "ms", p50("core.world"))
	m.set("track.step_ms_p50", "ms", p50("track.step"))
	m.set("store.append_ms_p50", "ms", p50("store.append"))
	m.set("store.append_frames_ms_p50", "ms", p50("store.append_frames"))
	m.set("store.bytes_per_frame", "B", float64(res.logBytes)/nFrames)
	m.set("tick.publish_phase_ms_p50", "ms", quantile(dur["tick.publish_phase"], 0.5))
	m.set("tick.ms_p50", "ms", quantile(tickMS(timed), 0.5))
	m.set("runtime.gc_pause_ms_per_frame", "ms", float64(res.mem.PauseTotalNs)/1e6/nFrames)
	var stealS float64
	for _, t := range res.ticks {
		stealS += t.stealS
	}
	m.set("host.steal_share", "ratio", stealS/(res.wallS*float64(runtime.NumCPU())))
	m.set("host.clean_tick_share", "ratio", float64(len(timed))/float64(len(res.ticks)))

	frameP50 := quantile(frameMS(timed), 0.5)
	m.set("frame.other_ms_p50", "ms", p50("frame"))
	m.set("trace.frame_ms_p50", "ms", frameP50)
	plainTimed, _ := o.plain.timed()
	m.set("trace.overhead_ms", "ms", frameP50-quantile(frameMS(plainTimed), 0.5))

	// Shares of summed time: the frame's children tile it, so these add
	// up (with frame.other) to one; encode is a share of the fleet's
	// worker time, the tick's wall time on every worker.
	frameSum := sum(dur["frame"])
	for _, layer := range []string{"hub.round_rtt", "fusion.fuse", "spod.detect", "core.world", "track.step", "store.append"} {
		m.set("share."+layer, "ratio", ratio(sum(dur[layer]), frameSum))
	}
	m.set("share.frame.other", "ratio", ratio(sum(self["frame"]), frameSum))
	m.set("share.fusion.encode_of_tick", "ratio", ratio(sum(dur["fusion.encode"]), float64(o.workers)*sum(tickMS(timed))))
	return m
}

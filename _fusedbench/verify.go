package main

import (
	"bytes"
	"fmt"

	"cooper/internal/fusion"
	"cooper/internal/pointcloud"
	"cooper/internal/roi"
	"cooper/internal/spod"
)

// verifyServed checks, off the clock, every payload the hub served in
// the first pass over the inputs against an independent derivation from
// the sender's capture of that tick:
//
//   - uncapped point rounds must serve exactly the CPQ1 encoding of the
//     sender's cloud, however it travelled (a CPD1 stream is reconstructed
//     and canonically re-encoded by the hub);
//   - capped point rounds must serve what roi.Select makes of the sender's
//     published frame under the ego's per-sender share of its cap, and
//     never more bytes than that share;
//   - feature rounds must serve the sender's published CPF3 bytes.
//
// Stale senders (lost publishes) serve an older frame and are skipped.
// It returns a description of every frame that failed.
func (r *rig) verifyServed(ticks []tickRec) []string {
	var bad []string
	for _, t := range ticks {
		if t.g >= len(r.in.ticks) {
			continue
		}
		ti := &r.in.ticks[t.g]
		for _, f := range t.frames {
			if f.err != nil {
				continue
			}
			for _, rf := range f.served {
				if rf.Stale {
					continue
				}
				p, _ := r.in.poseIndex(rf.Sender)
				want, err := r.expectServed(ti, p, t.publishes[p].payload, f.ego, len(f.served))
				if err == nil && !bytes.Equal(rf.Payload, want) {
					err = fmt.Errorf("%d B served, %d B expected", len(rf.Payload), len(want))
				}
				if limit := r.perSender(f.ego, len(f.served)); err == nil && limit > 0 && len(rf.Payload) > limit {
					err = fmt.Errorf("%d B served over a %d B share of the cap", len(rf.Payload), limit)
				}
				if err != nil {
					bad = append(bad, fmt.Sprintf("tick %d ego %s: sender %s: %v", t.g, r.in.labels[f.ego], rf.Sender, err))
					break // one failure per frame
				}
			}
		}
	}
	return bad
}

// expectServed derives the payload a round of n senders should carry for
// the sender, given its capture and the bytes it published.
func (r *rig) expectServed(ti *tickInput, sender int, published []byte, ego, n int) ([]byte, error) {
	if r.w.wire == wireCPF3 {
		return published, nil
	}
	perSender := r.perSender(ego, n)
	if perSender == 0 {
		return pointcloud.EncodeQuantized(ti.frames[sender].Cloud)
	}
	if len(published) <= perSender {
		return published, nil
	}
	cloud, err := pointcloud.Decode(published)
	if err != nil {
		return nil, err
	}
	sel, err := roi.Select(roi.Source{Cloud: cloud, Derive: func() *spod.FeatureFrame {
		return spod.NewDefault().EncodeFeatureFrame(cloud, nil).Prune(fusion.DefaultFeatureBackend().TransmitFloor)
	}}, perSender)
	return sel.Payload, err
}

// perSender is the byte share of an ego's cap each of a round's n
// senders gets (0 when uncapped): the cap buys cap/8/RateHz bytes per
// round, split evenly.
func (r *rig) perSender(ego, n int) int {
	if r.w.budgets[ego] == 0 || n == 0 {
		return 0
	}
	return max(int(float64(r.w.budgets[ego])/8/r.sched.RateHz)/n, 1)
}

package hub

import (
	"fmt"
	"strings"
	"testing"

	"cooper/internal/geom"
	"cooper/internal/network"
	"cooper/internal/pointcloud"
)

// TestAssembleRoundStaleness is the staleness-fallback table: a round
// whose epoch lost some senders' publishes must serve the delivered
// subset — each loser's last delivered frame — with the in-band partial
// marker naming exactly the losers, and must never return an error, not
// even when every sender's current publish was lost.
func TestAssembleRoundStaleness(t *testing.T) {
	senders := []string{"v1", "v2", "v3"}
	cases := []struct {
		name    string
		dropped []string // senders whose epoch-2 publish is lost
	}{
		{"drop-none", nil},
		{"drop-first", []string{"v1"}},
		{"drop-last", []string{"v3"}},
		{"drop-middle", []string{"v2"}},
		{"drop-all", []string{"v1", "v2", "v3"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := New(Config{})
			lost := make(map[string]bool, len(tc.dropped))
			for _, id := range tc.dropped {
				lost[id] = true
			}
			// Epoch 1 delivers for everyone; epoch 2's publish is lost for
			// the dropped senders (it simply never arrives).
			for i, id := range senders {
				if _, err := h.Publish(id, stateAt(float64(10*(i+1)), 0), payloadFor(t, 300, int64(i+1)), 1); err != nil {
					t.Fatal(err)
				}
				if lost[id] {
					continue
				}
				if _, err := h.Publish(id, stateAt(float64(10*(i+1)), 1), payloadFor(t, 300, int64(i+10)), 2); err != nil {
					t.Fatal(err)
				}
			}
			round, err := h.AssembleRound("rx", geom.V3(0, 0, 0), RoundSpec{Floor: 2})
			if err != nil {
				t.Fatalf("partial round errored: %v", err)
			}
			if len(round.Frames) != len(senders) {
				t.Fatalf("round served %d frames, want the full delivered subset of %d", len(round.Frames), len(senders))
			}
			var flagged []string
			for _, f := range round.Frames {
				if f.Stale != lost[f.Sender] {
					t.Errorf("sender %s: stale=%v, want %v", f.Sender, f.Stale, lost[f.Sender])
				}
				if f.Stale {
					flagged = append(flagged, f.Sender)
				}
			}
			if got, want := strings.Join(round.Stale, ","), strings.Join(flagged, ","); got != want {
				t.Errorf("Round.Stale = %q, want slot-ordered %q", got, want)
			}
			if partial := len(round.Stale) > 0; partial != (len(tc.dropped) > 0) {
				t.Errorf("partial = %v with %d dropped", partial, len(tc.dropped))
			}
			// A zero floor (pre-floor client) flags nothing.
			round, err = h.AssembleRound("rx", geom.V3(0, 0, 0), RoundSpec{})
			if err != nil {
				t.Fatal(err)
			}
			if len(round.Stale) > 0 {
				t.Errorf("zero floor flagged %v", round.Stale)
			}
		})
	}
}

// TestPublishLossInjection drives seeded publish loss through the cache:
// dropped publishes must leave the previous frame serving, delivered
// ones must replace it, and the drop pattern must be reproducible.
func TestPublishLossInjection(t *testing.T) {
	loss := network.LossModel{DropRate: 0.5, Seed: 23}
	h := New(Config{Loss: loss})
	const seqs = 20
	lastDelivered := uint64(0)
	drops := 0
	for seq := uint64(1); seq <= seqs; seq++ {
		if _, err := h.Publish("v1", stateAt(10, 0), payloadFor(t, 200, int64(seq)), seq); err != nil {
			t.Fatal(err)
		}
		if loss.DropPublish("v1", seq) {
			drops++
		} else {
			lastDelivered = seq
		}
		h.mu.RLock()
		f := h.frames["v1"]
		h.mu.RUnlock()
		if lastDelivered == 0 {
			if f != nil {
				t.Fatalf("seq %d: frame cached before any delivery", seq)
			}
			continue
		}
		if f == nil || f.seq != lastDelivered {
			t.Fatalf("seq %d: cache holds seq %d, want last delivered %d", seq, f.seq, lastDelivered)
		}
	}
	if drops == 0 || drops == seqs {
		t.Fatalf("degenerate drop pattern: %d/%d dropped", drops, seqs)
	}
}

// TestDeltaStreamRecoversFromLostKeyframe runs a CPD1 publish stream
// through a hub that drops the very first publish — the stream's
// keyframe. The following delta must fail in-band with the keyframe
// error and the client's retry path must re-key and converge: by the end
// the cache serves the newest cloud, canonical CPQ1, as if nothing had
// been lost.
func TestDeltaStreamRecoversFromLostKeyframe(t *testing.T) {
	// Find a seed that drops publish seq 1 (the keyframe) and delivers
	// the next few, so the recovery path is what is exercised.
	var loss network.LossModel
	found := false
	for seed := int64(1); seed < 200; seed++ {
		loss = network.LossModel{DropRate: 0.3, Seed: seed}
		if loss.DropPublish("v1", 1) && !loss.DropPublish("v1", 2) && !loss.DropPublish("v1", 3) {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no seed drops seq 1 and delivers 2..3; loss model broken")
	}
	h := New(Config{Loss: loss})
	l, err := network.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go h.Serve(l)
	defer h.Close()

	cl, _, err := Connect(l.Addr(), "v1", stateAt(10, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	for seq := int64(1); seq <= 3; seq++ {
		cloud := testCloud(400, seq)
		if _, _, err := cl.PublishDelta(stateAt(10, 0), cloud); err != nil {
			t.Fatalf("publish %d through lossy hub: %v", seq, err)
		}
		h.mu.RLock()
		f := h.frames["v1"]
		h.mu.RUnlock()
		if seq == 1 {
			if f != nil {
				t.Fatal("dropped keyframe reached the cache")
			}
			continue
		}
		if f == nil {
			t.Fatalf("seq %d: nothing cached after recovery", seq)
		}
		want, err := pointcloud.EncodeQuantized(cloud)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprintf("%x", f.payload) != fmt.Sprintf("%x", want) {
			t.Fatalf("seq %d: cached payload diverged from the canonical encode", seq)
		}
	}
}

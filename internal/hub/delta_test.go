package hub

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"cooper/internal/geom"
	"cooper/internal/pointcloud"
)

// frameStream builds a noisy re-observation sequence for one publisher:
// the same scene with fresh per-frame sensor noise, the workload the CPD1
// delta stream compresses.
func frameStream(frames, points int, seed int64) []*pointcloud.Cloud {
	rng := rand.New(rand.NewSource(seed))
	base := testCloud(points, seed)
	out := make([]*pointcloud.Cloud, frames)
	for f := range out {
		c := &pointcloud.Cloud{}
		for i := 0; i < base.Len(); i++ {
			p := base.At(i)
			c.AppendXYZR(
				p.X+rng.NormFloat64()*0.02,
				p.Y+rng.NormFloat64()*0.02,
				p.Z+rng.NormFloat64()*0.01,
				p.Reflectance,
			)
		}
		out[f] = c
	}
	return out
}

// TestPublishDeltaCanonicalServing runs a full v3 publish stream over TCP
// and checks the hub's central invariant: whatever travelled on the delta
// stream, fusion rounds serve the canonical CPQ1 frame — byte-identical
// to what a v2 Publish of the same cloud would have cached.
func TestPublishDeltaCanonicalServing(t *testing.T) {
	_, addr := startHub(t, Config{})
	pub, _, err := Connect(addr, "v1", stateAt(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	sub, _, err := Connect(addr, "rx", stateAt(5, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	frames := frameStream(12, 600, 31)
	wire, full := 0, 0
	for i, cloud := range frames {
		cached, wireBytes, err := pub.PublishDelta(stateAt(0, 0), cloud)
		if err != nil {
			t.Fatalf("frame %d: PublishDelta: %v", i, err)
		}
		if cached != 1 {
			t.Fatalf("frame %d: cached = %d, want 1", i, cached)
		}
		wire += wireBytes
		full += pointcloud.EncodedSizeQuantized(cloud.Len())

		round, err := sub.RequestRound(stateAt(5, 0), 0, 0)
		if err != nil {
			t.Fatalf("frame %d: RequestRound: %v", i, err)
		}
		if len(round) != 1 || round[0].Sender != "v1" {
			t.Fatalf("frame %d: round = %+v", i, round)
		}
		canonical, err := pointcloud.EncodeQuantized(cloud)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(round[0].Payload, canonical) {
			t.Fatalf("frame %d: served payload is not the canonical full encoding", i)
		}
	}
	if wire >= full {
		t.Errorf("delta stream published %d B, no smaller than %d B full frames", wire, full)
	}
	t.Logf("v3 stream: %d B on the wire vs %d B full (%.1f%%)", wire, full, 100*float64(wire)/float64(full))
}

// TestPublishDeltaKeyframeRecovery drops the hub's keyframe state behind
// the client's back (modelling a hub restart with a fresh process) and
// checks the client's transparent keyframe retry.
func TestPublishDeltaKeyframeRecovery(t *testing.T) {
	h, addr := startHub(t, Config{})
	pub, _, err := Connect(addr, "v1", stateAt(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	frames := frameStream(4, 300, 33)
	if _, _, err := pub.PublishDelta(stateAt(0, 0), frames[0]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := pub.PublishDelta(stateAt(0, 0), frames[1]); err != nil {
		t.Fatal(err)
	}

	// The hub loses the sender's delta state; the client still believes
	// its keyframe is live, so its next delta cannot apply.
	h.deltaMu.Lock()
	delete(h.deltas, "v1")
	h.deltaMu.Unlock()

	if _, _, err := pub.PublishDelta(stateAt(0, 0), frames[2]); err != nil {
		t.Fatalf("PublishDelta after hub state loss: %v (want transparent keyframe retry)", err)
	}
	// The recovered stream keeps delta-coding.
	if _, _, err := pub.PublishDelta(stateAt(0, 0), frames[3]); err != nil {
		t.Fatal(err)
	}
	canonical, _ := pointcloud.EncodeQuantized(frames[3])
	r, err := h.AssembleRound("rx", geom.V3(0, 0, 0), 1, 0)
	if err != nil || len(r.Frames) != 1 || !bytes.Equal(r.Frames[0].Payload, canonical) {
		t.Error("cached frame after recovery is not the canonical latest frame")
	}
}

// TestPublishDeltaRejectsGarbage: corrupt CPD1 payloads are answered
// in-band and do not disturb the cached frame or the keyframe state.
func TestPublishDeltaRejectsGarbage(t *testing.T) {
	h := New(Config{})
	frames := frameStream(2, 200, 35)
	var enc pointcloud.DeltaEncoder
	kf, _, err := enc.Encode(frames[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Publish("v1", stateAt(0, 0), kf, 1); err != nil {
		t.Fatal(err)
	}

	bad := append([]byte{}, kf...)
	bad[5] = 0xFF // nonzero reserved byte
	if _, err := h.Publish("v1", stateAt(0, 0), bad, 2); err == nil {
		t.Fatal("corrupt delta frame accepted")
	}

	// The keyframe state survived: the genuine next delta still applies.
	delta, _, err := enc.Encode(frames[1], 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Publish("v1", stateAt(0, 0), delta, 2); err != nil {
		t.Fatalf("delta after rejected garbage: %v", err)
	}
	canonical, _ := pointcloud.EncodeQuantized(frames[1])
	r, err := h.AssembleRound("rx", geom.V3(0, 0, 0), 1, 0)
	if err != nil || len(r.Frames) != 1 || !bytes.Equal(r.Frames[0].Payload, canonical) {
		t.Error("cached frame is not the canonical reconstruction")
	}
}

// TestConcurrentDeltaPublishWhileDerive hammers the cachedFrame cache
// from both sides at once — delta publishes replacing frames while
// requesters force the lazy feature derivation on the frames being
// replaced. Run with -race this is the data-race check for the v3
// publish path.
func TestConcurrentDeltaPublishWhileDerive(t *testing.T) {
	h := New(Config{})
	const publishers = 4
	const rounds = 8

	streams := make([][]*pointcloud.Cloud, publishers)
	for i := range streams {
		streams[i] = frameStream(rounds, 300, int64(40+i))
	}

	var wg sync.WaitGroup
	errs := make([]error, 2*publishers)
	for i := 0; i < publishers; i++ {
		wg.Add(2)
		// Publisher: a delta stream through Publish, as the session loop
		// would drive it.
		go func(i int) {
			defer wg.Done()
			var enc pointcloud.DeltaEncoder
			st := stateAt(float64(10*(i+1)), 0)
			id := fmt.Sprintf("v%d", i+1)
			for r, cloud := range streams[i] {
				payload, _, err := enc.Encode(cloud, uint64(r+1))
				if err != nil {
					errs[i] = err
					return
				}
				if _, err := h.Publish(id, st, payload, uint64(r+1)); err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
		// Requester: alternately raw and feature rounds, the latter
		// triggering each cached frame's sync.Once feature derivation
		// while publishes race to replace the frame.
		go func(i int) {
			defer wg.Done()
			id := fmt.Sprintf("rx%d", i+1)
			at := geom.V3(float64(5*i), 5, 0)
			for r := 0; r < rounds; r++ {
				if _, err := h.AssembleRound(id, at, 0, 0); err != nil {
					errs[publishers+i] = err
					return
				}
				if _, err := h.AssembleFeatureRound(id, at, 0, 2_000_000); err != nil {
					errs[publishers+i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", i, err)
		}
	}
	if h.Cached() != publishers {
		t.Errorf("cached = %d, want %d", h.Cached(), publishers)
	}
}

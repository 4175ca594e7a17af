package hub

import (
	"bytes"
	"sync"
	"testing"

	"cooper/internal/geom"
	"cooper/internal/lidar"
	"cooper/internal/pointcloud"
	"cooper/internal/roi"
	"cooper/internal/scene"
	"cooper/internal/spod"
)

// sensedCloud senses one pose of a generated scenario. Unlike testCloud's
// uniform scatter, sensed clouds carry real surface structure, so derived
// feature frames keep substantial columns after the transmit-floor prune.
// Scans are cached: every caller sees the same deterministic clouds.
var (
	sensedOnce   sync.Once
	sensedClouds []*pointcloud.Cloud
	sensedErr    error
)

func sensedCloud(t testing.TB, pose int) *pointcloud.Cloud {
	t.Helper()
	sensedOnce.Do(func() {
		sc, err := scene.Generate(scene.GenParams{Family: "intersection", Fleet: 2, Seed: 9, Traffic: 5})
		if err != nil {
			sensedErr = err
			return
		}
		for _, p := range sc.Poses {
			scan := lidar.NewScanner(sc.LiDAR, sc.Seed).SetWorkers(1).
				ScanFrom(p, sc.Scene.Targets(), sc.Scene.GroundZ)
			sensedClouds = append(sensedClouds, scan.Cloud)
		}
	})
	if sensedErr != nil {
		t.Fatalf("generate: %v", sensedErr)
	}
	return sensedClouds[pose%len(sensedClouds)]
}

func sensedPayloadFor(t testing.TB, pose int) []byte {
	t.Helper()
	enc, err := pointcloud.EncodeQuantized(sensedCloud(t, pose))
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// featurePayloadFor encodes the post-convolution feature frame of a
// sensed cloud — what a feature-backend vehicle publishes instead of
// points.
func featurePayloadFor(t testing.TB, pose int) []byte {
	t.Helper()
	f := spod.New(spod.DefaultConfig()).EncodeFeatureFrame(sensedCloud(t, pose), nil)
	if f.Sites() == 0 {
		t.Fatal("sensed cloud produced an empty feature frame")
	}
	return f.Encode()
}

func TestPublishFeatureFrame(t *testing.T) {
	h := New(Config{})
	if _, err := h.Publish("v1", stateAt(0, 0), featurePayloadFor(t, 0), 1); err != nil {
		t.Fatalf("feature publish rejected: %v", err)
	}
	if h.Cached() != 1 {
		t.Fatalf("cached = %d, want 1", h.Cached())
	}
	// A corrupt payload carrying the feature magic must be rejected like a
	// corrupt cloud, so rounds can rely on cached frames being fusable.
	if _, err := h.Publish("v2", stateAt(5, 0), []byte("CPF3 but garbage"), 1); err == nil {
		t.Error("corrupt feature payload accepted")
	}
}

// TestAssembleFeatureRound covers the feature-requester path: raw
// publishers are served as derived, budget-trimmed CPF3 frames.
func TestAssembleFeatureRound(t *testing.T) {
	h := New(Config{})
	for i, d := range []float64{10, 20} {
		id := string(rune('a' + i))
		if _, err := h.Publish(id, stateAt(d, 0), sensedPayloadFor(t, i), 1); err != nil {
			t.Fatal(err)
		}
	}

	uncapped, err := h.AssembleFeatureRound("rx", geom.V3(0, 0, 0), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(uncapped.Frames) != 2 {
		t.Fatalf("round has %d frames, want 2", len(uncapped.Frames))
	}
	for _, f := range uncapped.Frames {
		if f.Category != roi.CategoryFeature {
			t.Errorf("%s served as category %v, want feature", f.Sender, f.Category)
		}
		if !spod.IsFeaturePayload(f.Payload) {
			t.Fatalf("%s payload lacks the feature magic", f.Sender)
		}
		dec, err := spod.DecodeFeatureFrame(f.Payload)
		if err != nil {
			t.Fatalf("%s feature payload does not decode: %v", f.Sender, err)
		}
		if dec.Sites() != f.Points {
			t.Errorf("%s payload carries %d sites, frame reports %d", f.Sender, dec.Sites(), f.Points)
		}
	}

	// Under a cap every frame stays a feature payload and fits per-sender.
	// Aim the cap at half the round's largest frame so trimming genuinely
	// happens while the budget stays above the 60-byte frame header.
	maxFrame := 0
	for _, f := range uncapped.Frames {
		maxFrame = max(maxFrame, len(f.Payload))
	}
	perSender := maxFrame / 2
	budgetBps := uint64(float64(perSender*2*8) * h.cfg.Scheduler.RateHz)
	capped, err := h.AssembleFeatureRound("rx", geom.V3(0, 0, 0), 0, budgetBps)
	if err != nil {
		t.Fatal(err)
	}
	trimmed := 0
	for _, f := range capped.Frames {
		if !spod.IsFeaturePayload(f.Payload) {
			t.Fatalf("capped %s payload is not a feature frame", f.Sender)
		}
		if len(f.Payload) > perSender {
			t.Errorf("%s payload %d B exceeds per-sender budget %d B", f.Sender, len(f.Payload), perSender)
		}
		if f.Downsampled {
			trimmed++
		}
	}
	if trimmed == 0 {
		t.Error("capped round trimmed no frame despite a sub-frame budget")
	}

	// Determinism: identical requests assemble identical rounds — the
	// lazily derived feature frames are cached, not re-derived differently.
	again, err := h.AssembleFeatureRound("rx", geom.V3(0, 0, 0), 0, budgetBps)
	if err != nil {
		t.Fatal(err)
	}
	for i := range again.Frames {
		if !bytes.Equal(again.Frames[i].Payload, capped.Frames[i].Payload) {
			t.Errorf("frame %d payload differs between identical requests", i)
		}
	}
}

// TestFeatureOnlyPublisherDegradation pins the mixed-fleet contract: a
// vehicle that publishes only feature frames must still be usable by raw
// requesters — served as CPF3 instead of erroring — at any budget, and
// through the v1 nearest-frame path.
func TestFeatureOnlyPublisherDegradation(t *testing.T) {
	h := New(Config{})
	featWire := featurePayloadFor(t, 0)
	if _, err := h.Publish("feat", stateAt(8, 0), featWire, 1); err != nil {
		t.Fatal(err)
	}

	// Uncapped raw round: the cached CPF3 bytes are served verbatim.
	round, err := h.AssembleRound("rx", geom.V3(0, 0, 0), 0, 0)
	if err != nil {
		t.Fatalf("raw round over a feature-only publisher: %v", err)
	}
	if len(round.Frames) != 1 || round.Frames[0].Category != roi.CategoryFeature {
		t.Fatalf("round = %+v, want one feature-category frame", round.Frames)
	}
	if !bytes.Equal(round.Frames[0].Payload, featWire) {
		t.Error("uncapped round re-encoded the published feature frame")
	}

	// A budget too small for anything must degrade, not error: the feature
	// rung always succeeds, down to a header-only frame.
	tiny, err := h.AssembleRound("rx", geom.V3(0, 0, 0), 0, 8)
	if err != nil {
		t.Fatalf("tiny-budget round over a feature-only publisher: %v", err)
	}
	if len(tiny.Frames) != 1 || !spod.IsFeaturePayload(tiny.Frames[0].Payload) {
		t.Fatalf("tiny-budget round = %+v, want one feature payload", tiny.Frames)
	}
	if _, err := spod.DecodeFeatureFrame(tiny.Frames[0].Payload); err != nil {
		t.Errorf("tiny-budget payload does not decode: %v", err)
	}

	// An uncapped one-sender round (the 1:1 exchange) degrades the same way.
	one, err := h.AssembleRound("rx", geom.V3(0, 0, 0), 1, 0)
	if err != nil || len(one.Frames) != 1 || !spod.IsFeaturePayload(one.Frames[0].Payload) {
		t.Errorf("one-sender round over a feature-only publisher: %+v, err=%v", one.Frames, err)
	}
}

// TestMixedFleetRounds publishes one raw and one feature vehicle and
// checks both requester flavours see both senders in fusable encodings.
func TestMixedFleetRounds(t *testing.T) {
	h := New(Config{})
	rawWire := sensedPayloadFor(t, 0)
	if _, err := h.Publish("raw", stateAt(10, 0), rawWire, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Publish("feat", stateAt(20, 0), featurePayloadFor(t, 1), 1); err != nil {
		t.Fatal(err)
	}

	raw, err := h.AssembleRound("rx", geom.V3(0, 0, 0), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw.Frames) != 2 {
		t.Fatalf("raw round has %d frames, want 2", len(raw.Frames))
	}
	for _, f := range raw.Frames {
		switch f.Sender {
		case "raw":
			if f.Category != roi.CategoryFullFrame || !bytes.Equal(f.Payload, rawWire) {
				t.Errorf("raw sender served as %v (%d B), want full frame verbatim", f.Category, len(f.Payload))
			}
		case "feat":
			if f.Category != roi.CategoryFeature || !spod.IsFeaturePayload(f.Payload) {
				t.Errorf("feature sender served as %v, want feature payload", f.Category)
			}
		}
	}

	feat, err := h.AssembleFeatureRound("rx", geom.V3(0, 0, 0), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range feat.Frames {
		if !spod.IsFeaturePayload(f.Payload) {
			t.Errorf("feature round serves %s as a non-feature payload", f.Sender)
		}
	}
}

// TestFeatureSessionsOverTCP runs the feature protocol end to end: a
// feature publisher and a raw publisher, with a feature-level round
// requested over a live session.
func TestFeatureSessionsOverTCP(t *testing.T) {
	_, addr := startHub(t, Config{})

	c1, _, err := Connect(addr, "v1", stateAt(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	featWire := featurePayloadFor(t, 0)
	if cached, err := c1.PublishFeatures(stateAt(0, 0), featWire); err != nil || cached != 1 {
		t.Fatalf("feature publish: cached=%d err=%v", cached, err)
	}

	c2, _, err := Connect(addr, "v2", stateAt(12, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.Publish(stateAt(12, 0), sensedPayloadFor(t, 1)); err != nil {
		t.Fatal(err)
	}

	// v2 requests a feature round: v1's frame arrives verbatim.
	frames, err := c2.RequestFeatureRound(stateAt(12, 0), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 1 || !bytes.Equal(frames[0].Payload, featWire) {
		t.Fatalf("feature round = %d frames, want v1's frame verbatim", len(frames))
	}

	// v1 requests a raw round: v2's cloud arrives as published.
	frames, err = c1.RequestRound(stateAt(0, 0), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 1 {
		t.Fatalf("raw round = %d frames, want 1", len(frames))
	}
	if _, err := pointcloud.Decode(frames[0].Payload); err != nil {
		t.Errorf("raw round payload does not decode as a cloud: %v", err)
	}

	// v1 requests a feature round over v2's raw publish: the hub derives.
	frames, err = c1.RequestFeatureRound(stateAt(0, 0), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 1 || !spod.IsFeaturePayload(frames[0].Payload) {
		t.Fatalf("derived feature round = %d frames, feature=%v", len(frames), len(frames) == 1 && spod.IsFeaturePayload(frames[0].Payload))
	}
}

package track

import (
	"math"
	"testing"
	"time"

	"cooper/internal/geom"
	"cooper/internal/spod"
)

func det(x, y float64) spod.Detection {
	return spod.Detection{Box: geom.NewBox(geom.V3(x, y, 0.78), 3.9, 1.6, 1.56, 0), Score: 0.9}
}

func at(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }

// TestTrackerFollowsConstantVelocity: a single object moving in a
// straight line keeps one identity and the Kalman filter converges on
// its true velocity.
func TestTrackerFollowsConstantVelocity(t *testing.T) {
	tr := New(Config{})
	var id0 int
	for k := 0; k < 10; k++ {
		x := 10.0 * float64(k) * 0.5 // 10 m/s at 2 Hz
		ids := tr.Step(at(500*k), []spod.Detection{det(x, 2)})
		if k == 0 {
			id0 = ids[0]
		} else if ids[0] != id0 {
			t.Fatalf("frame %d: identity switched from %d to %d", k, id0, ids[0])
		}
	}
	tracks := tr.Tracks()
	if len(tracks) != 1 {
		t.Fatalf("want a single track, got %d", len(tracks))
	}
	if v := tracks[0].Vel.X; math.Abs(v-10) > 1.0 {
		t.Errorf("filtered velocity = %.2f m/s, want ≈ 10", v)
	}
	if tracks[0].Hits != 10 {
		t.Errorf("hits = %d, want 10", tracks[0].Hits)
	}
	// Latency-compensated readout: predicting half a period ahead lands
	// between the last and next positions.
	pred := tracks[0].predictedBox(at(500*9 + 250))
	wantX := 10.0*9*0.5 + 10*0.25
	if math.Abs(pred.Center.X-wantX) > 1.5 {
		t.Errorf("predicted x = %.2f, want ≈ %.2f", pred.Center.X, wantX)
	}
}

// TestTrackerSurvivesMisses: a track outlives a detection gap shorter
// than MaxMisses and reclaims its object, but dies past the limit.
func TestTrackerSurvivesMisses(t *testing.T) {
	tr := New(Config{MaxMisses: 2})
	ids := tr.Step(at(0), []spod.Detection{det(5, 0)})
	id0 := ids[0]
	tr.Step(at(500), []spod.Detection{det(7.5, 0)}) // velocity lock
	tr.Step(at(1000), nil)                          // miss 1
	tr.Step(at(1500), nil)                          // miss 2
	ids = tr.Step(at(2000), []spod.Detection{det(15, 0)})
	if ids[0] != id0 {
		t.Errorf("track did not survive a 2-frame gap: got id %d, want %d", ids[0], id0)
	}
	tr.Step(at(2500), nil)
	tr.Step(at(3000), nil)
	tr.Step(at(3500), nil)
	if n := len(tr.Tracks()); n != 0 {
		t.Errorf("track should have died after MaxMisses, still %d alive", n)
	}
}

// TestTrackerDistanceGateRescue: at a low frame rate a fast object moves
// more than its own length between frames (zero IoU); the distance gate
// must still re-associate it instead of spawning a new identity.
func TestTrackerDistanceGateRescue(t *testing.T) {
	tr := New(Config{})
	ids := tr.Step(at(0), []spod.Detection{det(0, 0)})
	id0 := ids[0]
	ids = tr.Step(at(1000), []spod.Detection{det(5.5, 0)}) // 5.5 m jump, no overlap
	if ids[0] != id0 {
		t.Errorf("distance gate failed: new id %d, want %d", ids[0], id0)
	}
	// Beyond the gate a new identity is correct.
	ids = tr.Step(at(2000), []spod.Detection{det(30, 0)})
	if ids[0] == id0 {
		t.Error("a 25 m jump must not keep the identity")
	}
}

// TestTrackerEmptyAndDeterministic: empty frames are harmless, and two
// trackers fed the same stream agree exactly.
func TestTrackerEmptyAndDeterministic(t *testing.T) {
	if got := New(Config{}).Step(at(0), nil); len(got) != 0 {
		t.Errorf("empty frame returned %v", got)
	}
	stream := [][]spod.Detection{
		{det(0, 0), det(10, 3)},
		{det(1, 0), det(11, 3), det(20, -5)},
		nil,
		{det(3, 0), det(13, 3), det(22, -5)},
	}
	run := func() []int {
		tr := New(Config{})
		var out []int
		for k, dets := range stream {
			out = append(out, tr.Step(at(300*k), dets)...)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic assignment at %d: %v vs %v", i, a, b)
		}
	}
}

// TestTrackerTwoLanes: two parallel objects moving together must keep
// two distinct stable identities — the association must not swap them.
func TestTrackerTwoLanes(t *testing.T) {
	tr := New(Config{})
	var first []int
	for k := 0; k < 8; k++ {
		x := 6.0 * float64(k) * 0.5
		ids := tr.Step(at(500*k), []spod.Detection{det(x, -1.75), det(x+2, 1.75)})
		if k == 0 {
			first = append([]int{}, ids...)
			if first[0] == first[1] {
				t.Fatal("two detections born into one track")
			}
		} else if ids[0] != first[0] || ids[1] != first[1] {
			t.Fatalf("frame %d: lanes swapped or split: %v, want %v", k, ids, first)
		}
	}
}

// predictedBox returns the track's box extrapolated to time now — the
// latency-compensated readout a planner would consume while the next
// fused frame is still on the channel.
func (t *Track) predictedBox(now time.Duration) geom.Box {
	dt := (now - t.updated).Seconds()
	px, _ := t.kx.predictState(dt)
	py, _ := t.ky.predictState(dt)
	b := t.Box
	b.Center = geom.V3(px, py, t.Box.Center.Z)
	return b
}

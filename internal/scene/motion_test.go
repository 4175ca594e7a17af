package scene

import (
	"math"
	"testing"
	"time"

	"cooper/internal/geom"
)

// TestMotionDeltaEdges table-drives the rigid-delta edge cases: zero
// dt, stationary bodies, degenerate waypoint paths and staleness far
// past the path horizon must all stay finite and teleport-free.
func TestMotionDeltaEdges(t *testing.T) {
	ring := WaypointMotion(5, ringArc(10, 0)...)
	cases := []struct {
		name   string
		m      Motion
		t1, t2 time.Duration
		wantT  geom.Vec3 // expected translation of Delta
		ident  bool
	}{
		{name: "zero dt const velocity", m: ConstVelocity(10, 0), t1: time.Second, t2: time.Second, ident: true},
		{name: "zero dt waypoints", m: ring, t1: time.Second, t2: time.Second, ident: true},
		{name: "stationary", m: Motion{}, t1: 0, t2: time.Hour, ident: true},
		{name: "zero speed path", m: WaypointMotion(0, geom.V3(0, 0, 0), geom.V3(10, 0, 0)), t1: 0, t2: time.Minute, ident: true},
		{name: "degenerate path", m: WaypointMotion(5, geom.V3(3, 3, 0), geom.V3(3, 3, 0)), t1: 0, t2: time.Minute, ident: true},
		{name: "const velocity", m: ConstVelocity(4, -2), t1: time.Second, t2: 3 * time.Second, wantT: geom.V3(8, -4, 0)},
		{name: "heading velocity", m: HeadingVelocity(2, math.Pi/2), t1: 0, t2: time.Second, wantT: geom.V3(0, 2, 0)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := tc.m.Delta(tc.t1, tc.t2)
			if tc.ident {
				if !d.AlmostEqual(geom.IdentityTransform(), 1e-12) {
					t.Errorf("Delta = %+v, want identity", d)
				}
				return
			}
			if !d.T.AlmostEqual(tc.wantT, 1e-9) {
				t.Errorf("Delta.T = %+v, want %+v", d.T, tc.wantT)
			}
		})
	}
}

// TestWaypointMotionBeyondHorizon: past the path end the body parks at
// the final waypoint with the final heading — sampling ever further must
// not move it, and the velocity must read zero.
func TestWaypointMotionBeyondHorizon(t *testing.T) {
	m := WaypointMotion(10, geom.V3(0, 0, 0), geom.V3(20, 0, 0), geom.V3(20, 10, 0))
	base := VehiclePose(0, 0, 0)
	end := m.PoseAt(base, 3*time.Second) // path takes 3 s exactly
	for _, dt := range []time.Duration{4 * time.Second, time.Minute, time.Hour} {
		p := m.PoseAt(base, dt)
		if !p.T.AlmostEqual(end.T, 1e-9) {
			t.Errorf("pose at %v = %+v, want parked at %+v", dt, p.T, end.T)
		}
		if yaw := p.R.Yaw(); math.Abs(yaw-math.Pi/2) > 1e-9 {
			t.Errorf("heading at %v = %g, want last-segment heading %g", dt, yaw, math.Pi/2)
		}
	}
}

// TestScenarioAtNeverNaNOrTeleports samples every generated family's
// timeline densely: every pose and every box must stay finite, and no
// body may move faster between samples than its modelled speed bound.
func TestScenarioAtNeverNaNOrTeleports(t *testing.T) {
	const (
		step  = 100 * time.Millisecond
		until = 8 * time.Second
		// No generated motion exceeds 15 m/s; allow slack for waypoint
		// chord shortcuts.
		maxSpeed = 16.0
	)
	finite := func(v geom.Vec3) bool {
		return !math.IsNaN(v.X) && !math.IsNaN(v.Y) && !math.IsNaN(v.Z) &&
			!math.IsInf(v.X, 0) && !math.IsInf(v.Y, 0) && !math.IsInf(v.Z, 0)
	}
	for _, fam := range Families() {
		sc, err := Generate(GenParams{Family: fam, Fleet: 4, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		if !sc.Dynamic() {
			t.Errorf("%s: generated scenario should be dynamic", fam)
		}
		prev := sc.At(0)
		for at := step; at <= until; at += step {
			snap := sc.At(at)
			maxStep := maxSpeed * step.Seconds()
			for i := range snap.Poses {
				p := snap.Poses[i].T
				if !finite(p) {
					t.Fatalf("%s: pose %d at %v is not finite: %+v", fam, i, at, p)
				}
				if d := p.DistXY(prev.Poses[i].T); d > maxStep {
					t.Fatalf("%s: pose %d teleported %.2f m in %v at t=%v", fam, i, d, step, at)
				}
			}
			for i := range snap.Scene.Objects {
				b := snap.Scene.Objects[i].Box
				if !finite(b.Center) || math.IsNaN(b.Yaw) {
					t.Fatalf("%s: object %d at %v is not finite: %+v", fam, i, at, b)
				}
				if d := b.Center.DistXY(prev.Scene.Objects[i].Box.Center); d > maxStep {
					t.Fatalf("%s: object %d teleported %.2f m in %v at t=%v", fam, i, d, step, at)
				}
			}
			prev = snap
		}
	}
}

// TestScenarioAtZeroIsIdentity: At(0) and At of a static scenario return
// the receiver unchanged, so the paper's frozen scenarios never pay for
// the time axis.
func TestScenarioAtZeroIsIdentity(t *testing.T) {
	sc, err := Generate(GenParams{Family: FamilyHighway, Fleet: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sc.At(0) != sc {
		t.Error("At(0) must return the scenario itself")
	}
	for _, static := range KITTIScenarios() {
		if static.Dynamic() {
			t.Errorf("%s: paper scenario must be static", static.Name)
		}
		if static.At(5*time.Second) != static {
			t.Errorf("%s: At on a static scenario must return the scenario itself", static.Name)
		}
	}
}

// TestScenarioAtDeterministic: the same scenario sampled at the same
// instant twice yields deeply equal worlds, and snapshots never mutate
// the base.
func TestScenarioAtDeterministic(t *testing.T) {
	sc, err := Generate(GenParams{Family: FamilyRoundabout, Fleet: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	base0 := sc.At(0)
	a := sc.At(1500 * time.Millisecond)
	b := sc.At(1500 * time.Millisecond)
	for i := range a.Poses {
		if !a.Poses[i].AlmostEqual(b.Poses[i], 0) {
			t.Fatalf("pose %d differs between identical samples", i)
		}
	}
	for i := range a.Scene.Objects {
		if a.Scene.Objects[i].Box != b.Scene.Objects[i].Box {
			t.Fatalf("object %d differs between identical samples", i)
		}
	}
	if sc.At(0) != base0 {
		t.Error("sampling must not disturb the base scenario")
	}
	if a.Dynamic() {
		t.Error("snapshots must be static — re-advancing a snapshot would double-apply motion")
	}
}

package fusion

import (
	"math"
	"math/rand"
	"testing"

	"cooper/internal/geom"
	"cooper/internal/pointcloud"
)

// inLoopFuse runs the raw backend over one sender payload with and
// without the in-loop ICP correction stage and returns both fused
// clouds, failing on any fuse error.
func inLoopFuse(t *testing.T, receiver, sender *pointcloud.Cloud, recvState, sendState VehicleState) (plain, corrected *pointcloud.Cloud) {
	t.Helper()
	p, err := RawBackend{}.Encode(SensorFrame{State: sendState, Cloud: sender}, nil)
	if err != nil {
		t.Fatal(err)
	}
	payloads := []Payload{{State: sendState, Data: p.Data}}
	run := func(b RawBackend) *pointcloud.Cloud {
		in, err := b.Fuse(SensorFrame{State: recvState, Cloud: receiver}, payloads)
		if err != nil {
			t.Fatalf("fuse (icp=%v): %v", b.UseICP, err)
		}
		return in.Cloud
	}
	return run(RawBackend{}), run(RawBackend{UseICP: true})
}

// assertFinite fails on any non-finite coordinate — the degenerate
// guards must never let a collapsed fit poison the fused cloud.
func assertFinite(t *testing.T, c *pointcloud.Cloud) {
	t.Helper()
	for i := 0; i < c.Len(); i++ {
		p := c.At(i)
		if math.IsNaN(p.X) || math.IsNaN(p.Y) || math.IsNaN(p.Z) ||
			math.IsInf(p.X, 0) || math.IsInf(p.Y, 0) || math.IsInf(p.Z, 0) {
			t.Fatalf("fused cloud point %d is non-finite: %+v", i, p)
		}
	}
}

// assertIdenticalClouds fails unless both fused clouds carry exactly the
// same points: the correction stage fell back to the uncorrected fusion.
func assertIdenticalClouds(t *testing.T, plain, corrected *pointcloud.Cloud) {
	t.Helper()
	if plain.Len() != corrected.Len() {
		t.Fatalf("corrected fusion changed the point count: %d vs %d", corrected.Len(), plain.Len())
	}
	for i := 0; i < plain.Len(); i++ {
		if plain.At(i) != corrected.At(i) {
			t.Fatalf("corrected fusion moved point %d: %+v vs %+v", i, corrected.At(i), plain.At(i))
		}
	}
}

// TestInLoopICPDegenerateGuards drives the in-loop correction stage
// through the geometries that break a rigid fit — coincident structure,
// a single collinear wall, and clouds with almost no overlap — under a
// drifted sender state. Every case must fall back to the uncorrected
// fusion, bit for bit, with no NaNs anywhere.
func TestInLoopICPDegenerateGuards(t *testing.T) {
	ground := func(rng *rand.Rand, c *pointcloud.Cloud, n int) {
		for i := 0; i < n; i++ {
			c.AppendXYZR(rng.Float64()*30-15, rng.Float64()*30-15, -1.73+rng.NormFloat64()*0.005, 0.2)
		}
	}
	drifted := VehicleState{GPS: geom.V3(10.4, 0.3, 0), Yaw: 0.01, MountHeight: 1.7}
	recv := VehicleState{MountHeight: 1.7}

	cases := []struct {
		name             string
		receiver, sender func() *pointcloud.Cloud
	}{
		{
			// All elevated structure piled around one spot: the pair
			// scatter collapses and the coincident gate must fire.
			name: "coincident",
			receiver: func() *pointcloud.Cloud {
				rng := rand.New(rand.NewSource(31))
				c := pointcloud.New(900)
				ground(rng, c, 600)
				for i := 0; i < 300; i++ {
					c.AppendXYZR(5+rng.NormFloat64()*1e-6, 1+rng.NormFloat64()*1e-6, rng.Float64(), 0.4)
				}
				return c
			},
			sender: func() *pointcloud.Cloud {
				rng := rand.New(rand.NewSource(32))
				c := pointcloud.New(900)
				ground(rng, c, 600)
				for i := 0; i < 300; i++ {
					c.AppendXYZR(-5+rng.NormFloat64()*1e-6, 1+rng.NormFloat64()*1e-6, rng.Float64(), 0.4)
				}
				return c
			},
		},
		{
			// One thin wall: every pair is collinear, the eigen-ratio
			// gate must refuse the yaw.
			name: "collinear",
			receiver: func() *pointcloud.Cloud {
				rng := rand.New(rand.NewSource(33))
				c := pointcloud.New(1300)
				ground(rng, c, 800)
				for i := 0; i < 500; i++ {
					c.AppendXYZR(8, rng.Float64()*12-6, rng.Float64()*2-1.4, 0.4)
				}
				return c
			},
			sender: func() *pointcloud.Cloud {
				rng := rand.New(rand.NewSource(34))
				c := pointcloud.New(1300)
				ground(rng, c, 800)
				for i := 0; i < 500; i++ {
					c.AppendXYZR(-2, rng.Float64()*12-6, rng.Float64()*2-1.4, 0.4)
				}
				return c
			},
		},
		{
			// Structure far apart in disjoint regions: nearest-neighbour
			// pairs exceed MaxPairDistance, leaving too few to fit.
			name: "low-overlap",
			receiver: func() *pointcloud.Cloud {
				rng := rand.New(rand.NewSource(35))
				c := pointcloud.New(900)
				ground(rng, c, 600)
				for i := 0; i < 300; i++ {
					c.AppendXYZR(12+rng.Float64(), 10+rng.Float64(), rng.Float64()*2, 0.4)
				}
				return c
			},
			sender: func() *pointcloud.Cloud {
				rng := rand.New(rand.NewSource(36))
				c := pointcloud.New(900)
				ground(rng, c, 600)
				for i := 0; i < 300; i++ {
					c.AppendXYZR(-30+rng.Float64(), -25+rng.Float64(), rng.Float64()*2, 0.4)
				}
				return c
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plain, corrected := inLoopFuse(t, tc.receiver(), tc.sender(), recv, drifted)
			assertFinite(t, corrected)
			assertIdenticalClouds(t, plain, corrected)
		})
	}
}

// TestInLoopICPEmptySender fuses an empty sender cloud through the
// correction stage: nothing to pair on, identity correction, no panic.
func TestInLoopICPEmptySender(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	recvCloud := pointcloud.New(200)
	for i := 0; i < 200; i++ {
		recvCloud.AppendXYZR(rng.Float64()*20-10, rng.Float64()*20-10, rng.Float64(), 0.3)
	}
	plain, corrected := inLoopFuse(t, recvCloud, &pointcloud.Cloud{},
		VehicleState{MountHeight: 1.7}, VehicleState{GPS: geom.V3(8, 0, 0), MountHeight: 1.7})
	assertFinite(t, corrected)
	assertIdenticalClouds(t, plain, corrected)
}

// TestFuseICPSharesReference pins the once-per-Fuse ICP reference to the
// per-sender RefineAlignment it replaced: three drifted senders must get
// the same corrections and the same merged cloud, bit for bit, including
// for an empty receiver and one with fewer than 10 non-ground points.
func TestFuseICPSharesReference(t *testing.T) {
	sparse := pointcloud.New(0)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 300; i++ { // ground only, plus a handful of raised returns
		sparse.AppendXYZR(rng.Float64()*30-15, rng.Float64()*30-15, -1.73+rng.NormFloat64()*0.005, 0.2)
	}
	for i := 0; i < 6; i++ {
		sparse.AppendXYZR(rng.Float64()*10, rng.Float64()*10, 0.5, 0.4)
	}
	recvState := VehicleState{MountHeight: 1.7}
	senders := []VehicleState{
		{GPS: geom.V3(0.35, -0.2, 0), Yaw: 0.012, MountHeight: 1.7},
		{GPS: geom.V3(-0.25, 0.3, 0), Yaw: -0.008, MountHeight: 1.7},
		{GPS: geom.V3(0.1, 0.45, 0), Yaw: 0.02, MountHeight: 1.7},
	}
	for _, tc := range []struct {
		name     string
		receiver *pointcloud.Cloud
	}{
		{"structured", structuredCloud(21)},
		{"empty", pointcloud.New(0)},
		{"under 10 non-ground", sparse},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var payloads []Payload
			for k, st := range senders {
				// Each sender sees the shared structure from its own pose.
				world := structuredCloud(int64(22 + k))
				p, err := RawBackend{}.Encode(SensorFrame{State: st, Cloud: world}, nil)
				if err != nil {
					t.Fatal(err)
				}
				payloads = append(payloads, Payload{State: st, Data: p.Data})
			}
			rx := SensorFrame{State: recvState, Cloud: tc.receiver}
			in, err := RawBackend{UseICP: true}.Fuse(rx, payloads)
			if err != nil {
				t.Fatal(err)
			}

			var aligned []*pointcloud.Cloud
			var corrections []float64
			for _, p := range payloads {
				c, err := pointcloud.Decode(p.Data)
				if err != nil {
					t.Fatal(err)
				}
				al := Align(recvState, p.State, c)
				corr := RefineAlignment(tc.receiver, al, DefaultICPConfig())
				aligned = append(aligned, al.Transform(corr))
				corrections = append(corrections, corr.T.Norm())
			}
			want := Merge(tc.receiver, aligned...)

			if len(in.ICPCorrections) != len(corrections) {
				t.Fatalf("%d corrections, want %d", len(in.ICPCorrections), len(corrections))
			}
			for k := range corrections {
				if math.Float64bits(in.ICPCorrections[k]) != math.Float64bits(corrections[k]) {
					t.Errorf("sender %d: correction %v, per-sender RefineAlignment %v", k, in.ICPCorrections[k], corrections[k])
				}
			}
			if tc.name == "structured" && corrections[0] == 0 {
				t.Error("structured receiver: ICP applied no correction; the case tests nothing")
			}
			assertIdenticalClouds(t, want, in.Cloud)
		})
	}
}

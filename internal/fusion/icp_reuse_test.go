package fusion

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cooper/internal/geom"
	"cooper/internal/lidar"
	"cooper/internal/pointcloud"
	"cooper/internal/scene"
)

// searchRefine is icpReference.refine as it was before certified reuse,
// kept as the reference refine must match bit for bit: every iteration
// searches the grid for every sample.
func (r *icpReference) searchRefine(source *pointcloud.Cloud) geom.Transform {
	correction := geom.IdentityTransform()
	if r.index == nil || source.Len() == 0 {
		return correction
	}
	cfg := r.cfg
	src := source.RemoveGroundPlaneInto(pointcloud.GetCloud(), source.EstimateGroundZ(), 0.3)
	defer pointcloud.PutCloud(src)
	if src.Len() < 10 {
		return correction
	}
	stride := 1
	if src.Len() > cfg.MaxPoints {
		stride = src.Len() / cfg.MaxPoints
	}
	var sxs, sys, rxs, rys []float64
	for iter := 0; iter < cfg.MaxIterations; iter++ {
		sxs, sys, rxs, rys = sxs[:0], sys[:0], rxs[:0], rys[:0]
		for i := 0; i < src.Len(); i += stride {
			p := correction.Apply(src.At(i).Pos())
			j, d := r.index.NearestWithin(p, cfg.MaxPairDistance)
			if j < 0 || d > cfg.MaxPairDistance {
				continue
			}
			q := r.cloud.At(j)
			sxs, sys = append(sxs, p.X), append(sys, p.Y)
			rxs, rys = append(rxs, q.X), append(rys, q.Y)
		}
		dyaw, tx, ty, ok := rigidFit2D(sxs, sys, rxs, rys)
		if !ok {
			return correction
		}
		update := geom.NewTransform(dyaw, 0, 0, geom.V3(tx, ty, 0))
		correction = update.Compose(correction)
		if math.Hypot(tx, ty) < cfg.ConvergenceDelta && math.Abs(dyaw) < 1e-4 {
			break
		}
	}
	return correction
}

// sameTransform reports whether a and b carry the same bits.
func sameTransform(a, b geom.Transform) bool {
	for i := range 3 {
		for j := range 3 {
			if math.Float64bits(a.R[i][j]) != math.Float64bits(b.R[i][j]) {
				return false
			}
		}
	}
	return math.Float64bits(a.T.X) == math.Float64bits(b.T.X) &&
		math.Float64bits(a.T.Y) == math.Float64bits(b.T.Y) &&
		math.Float64bits(a.T.Z) == math.Float64bits(b.T.Z)
}

// fleetRound senses one round of a generated fleet scenario the way the
// scenario runner's vehicles do: pose 0 is the receiver, and every other
// pose a sender whose GPS state is drifted by mode, drawing signs from a
// source seeded 1 in sender order. It returns the receiver's frame and
// each sender's cloud GPS-aligned into it.
func fleetRound(tb testing.TB, family scene.Family, seed int64, mode DriftMode) (SensorFrame, []*pointcloud.Cloud) {
	tb.Helper()
	sc, err := scene.Generate(scene.GenParams{Family: family, Fleet: 4, Seed: seed})
	if err != nil {
		tb.Fatal(err)
	}
	frame := func(i int) SensorFrame {
		pose := sc.Poses[i]
		st := VehicleState{GPS: pose.T, Yaw: pose.R.Yaw(), Pitch: pose.R.Pitch(), Roll: pose.R.Roll(), MountHeight: sc.LiDAR.MountHeight}
		scan := lidar.NewScanner(sc.LiDAR, sc.SensingSeed(i, 0)).ScanFrom(st.Pose(), sc.Scene.Targets(), sc.Scene.GroundZ)
		return SensorFrame{State: st, Cloud: scan.Cloud}
	}
	rx := frame(0)
	rng := rand.New(rand.NewSource(1))
	var aligned []*pointcloud.Cloud
	for i := 1; i < len(sc.Poses); i++ {
		tx := frame(i)
		tx.State = ApplyDrift(tx.State, mode, rng)
		p, err := RawBackend{}.Encode(tx, nil)
		if err != nil {
			tb.Fatal(err)
		}
		c, err := pointcloud.Decode(p.Data)
		if err != nil {
			tb.Fatal(err)
		}
		aligned = append(aligned, Align(rx.State, tx.State, c))
	}
	return rx, aligned
}

// TestRefineReuseMatchesFullSearch pins refine, which takes a sample's
// certified answer from the iteration before whenever the certificate
// allows, to the always-search refinement it replaced: every correction
// must match bit for bit on canyon and blocked rounds with drift on and
// off, and on tiny clouds that hold a dozen elevated points. On the
// scenario rounds some queries must actually be reused.
func TestRefineReuseMatchesFullSearch(t *testing.T) {
	type round struct {
		name    string
		rx      *pointcloud.Cloud
		senders []*pointcloud.Cloud
	}
	var rounds []round
	for _, family := range []scene.Family{scene.FamilyCanyon, scene.FamilyBlocked} {
		for _, mode := range []DriftMode{DriftNone, DriftDouble} {
			seed := int64(len(rounds) + 1)
			rx, senders := fleetRound(t, family, seed, mode)
			rounds = append(rounds, round{fmt.Sprintf("%s/seed %d/%v", family, seed, mode), rx.Cloud, senders})
		}
	}
	tiny := func(seed int64, n int, shift geom.Vec3) *pointcloud.Cloud {
		rng := rand.New(rand.NewSource(seed))
		c := pointcloud.New(40 + n)
		for i := 0; i < 40; i++ {
			c.AppendXYZR(rng.Float64()*10-5, rng.Float64()*10-5, -1.73, 0.2)
		}
		for i := 0; i < n; i++ {
			c.AppendXYZR(shift.X+rng.Float64()*4-2, shift.Y+rng.Float64()*4-2, shift.Z+rng.Float64(), 0.4)
		}
		return c
	}
	rounds = append(rounds, round{"tiny", tiny(5, 12, geom.Vec3{}), []*pointcloud.Cloud{
		tiny(5, 12, geom.V3(0.2, -0.1, 0)), tiny(6, 14, geom.V3(-0.3, 0.25, 0)), tiny(7, 9, geom.Vec3{}),
	}})

	for _, rd := range rounds {
		got := newICPReference(rd.rx, DefaultICPConfig())
		want := newICPReference(rd.rx, DefaultICPConfig())
		for k, s := range rd.senders {
			g, w := got.refine(s), want.searchRefine(s)
			if !sameTransform(g, w) {
				t.Errorf("%s sender %d: refine %+v, full search %+v", rd.name, k, g, w)
			}
		}
		if rd.name != "tiny" && got.reused == 0 {
			t.Errorf("%s: none of %d queries reused a certified answer; the case tests nothing", rd.name, got.queries)
		}
		got.release()
		want.release()
	}
}

// BenchmarkICPRefine measures the ICP refinement alone on the inputs of
// the root package's BenchmarkRawFuseICP3 (canyon, fleet 4, seed 1, the
// three senders drifted DriftDouble): each op refines the three aligned
// senders against one prepared receiver reference. It reports the
// correspondence queries per op and how many of them took a certified
// answer instead of searching; both counts are exact and host-independent.
func BenchmarkICPRefine(b *testing.B) {
	rx, senders := fleetRound(b, scene.FamilyCanyon, 1, DriftDouble)
	ref := newICPReference(rx.Cloud, DefaultICPConfig())
	defer ref.release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range senders {
			ref.refine(s)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(ref.queries)/float64(b.N), "queries/op")
	b.ReportMetric(float64(ref.reused)/float64(b.N), "reused/op")
}

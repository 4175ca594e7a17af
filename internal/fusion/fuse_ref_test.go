package fusion

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"cooper/internal/geom"
	"cooper/internal/pointcloud"
	"cooper/internal/spod"
)

// referenceFuse is RawBackend.Fuse as it was before the copy-once merge
// and the certified reuse of ICP correspondences, kept as the reference
// Fuse must match bit for bit: every raw payload decoded into a fresh
// cloud, aligned into another (Align), refined with a grid search for
// every query (searchRefine), corrected into a third (Transform) and
// merged at the end (Merge).
func referenceFuse(b RawBackend, receiver SensorFrame, payloads []Payload) (*FusedInput, error) {
	in := &FusedInput{Cloud: receiver.Cloud, MaxDist: maxSenderDist(receiver, payloads)}
	var aligned []*pointcloud.Cloud
	var icp *icpReference
	for _, p := range payloads {
		if spod.IsFeaturePayload(p.Data) {
			r, err := decodeRemote(receiver, p)
			if err != nil {
				return nil, err
			}
			in.Remotes = append(in.Remotes, r)
			continue
		}
		c, err := pointcloud.Decode(p.Data)
		if err != nil {
			return nil, fmt.Errorf("fusion: raw payload from %s: %w", senderName(p), err)
		}
		al := Align(receiver.State, p.State, c)
		if b.UseICP {
			if icp == nil {
				icp = newICPReference(receiver.Cloud, DefaultICPConfig())
			}
			corr := icp.searchRefine(al)
			al = al.Transform(corr)
			in.ICPCorrections = append(in.ICPCorrections, corr.T.Norm())
		}
		aligned = append(aligned, al)
	}
	if len(aligned) > 0 {
		in.Cloud = Merge(receiver.Cloud, aligned...)
		in.Merged = true
	}
	return in, nil
}

// assertSameFuse fails unless both fused inputs carry the same bits:
// cloud, remotes, ICP corrections, merge flag and range widening.
func assertSameFuse(t *testing.T, got, want *FusedInput) {
	t.Helper()
	if got.Cloud.Len() != want.Cloud.Len() {
		t.Fatalf("fused cloud has %d points, reference %d", got.Cloud.Len(), want.Cloud.Len())
	}
	for i := 0; i < want.Cloud.Len(); i++ {
		g, w := got.Cloud.At(i), want.Cloud.At(i)
		for k, pair := range [4][2]float64{{g.X, w.X}, {g.Y, w.Y}, {g.Z, w.Z}, {g.Reflectance, w.Reflectance}} {
			if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
				t.Fatalf("fused point %d field %d = %v, reference %v", i, k, pair[0], pair[1])
			}
		}
	}
	if len(got.ICPCorrections) != len(want.ICPCorrections) {
		t.Fatalf("%d ICP corrections, reference %d", len(got.ICPCorrections), len(want.ICPCorrections))
	}
	for k := range want.ICPCorrections {
		if math.Float64bits(got.ICPCorrections[k]) != math.Float64bits(want.ICPCorrections[k]) {
			t.Errorf("ICP correction %d = %v, reference %v", k, got.ICPCorrections[k], want.ICPCorrections[k])
		}
	}
	if got.Merged != want.Merged || math.Float64bits(got.MaxDist) != math.Float64bits(want.MaxDist) {
		t.Errorf("Merged %v MaxDist %v, reference %v %v", got.Merged, got.MaxDist, want.Merged, want.MaxDist)
	}
	if !reflect.DeepEqual(got.Remotes, want.Remotes) {
		t.Errorf("remotes differ from the reference: %d vs %d", len(got.Remotes), len(want.Remotes))
	}
}

// TestFuseMatchesReference pins the copy-once Fuse to the composition it
// replaced, with ICP on and off: drifted raw senders, a feature payload
// mixed in, and a corrupt payload mid-list, which must still fail.
func TestFuseMatchesReference(t *testing.T) {
	recvState := VehicleState{MountHeight: 1.7}
	senders := []VehicleState{
		{GPS: geom.V3(0.35, -0.2, 0), Yaw: 0.012, MountHeight: 1.7},
		{GPS: geom.V3(-0.25, 0.3, 0), Yaw: -0.008, MountHeight: 1.7},
		{GPS: geom.V3(0.1, 0.45, 0), Yaw: 0.02, MountHeight: 1.7},
	}
	var raw []Payload
	for k, st := range senders {
		p, err := RawBackend{}.Encode(SensorFrame{State: st, Cloud: structuredCloud(int64(31 + k))}, nil)
		if err != nil {
			t.Fatal(err)
		}
		raw = append(raw, Payload{SenderID: fmt.Sprint("s", k), State: st, Data: p.Data})
	}
	feat, err := DefaultFeatureBackend().Encode(SensorFrame{State: senders[1], Cloud: structuredCloud(35)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	feat.SenderID = "f"
	bad := Payload{SenderID: "bad", State: senders[2], Data: raw[2].Data[:len(raw[2].Data)-3]}
	badFeat := Payload{SenderID: "badf", State: senders[0], Data: feat.Data[:len(feat.Data)/2]}
	rx := SensorFrame{State: recvState, Cloud: structuredCloud(30)}
	for _, tc := range []struct {
		name     string
		payloads []Payload
		wantErr  bool
	}{
		{"raw", raw, false},
		{"none", nil, false},
		{"feature mixed in", []Payload{raw[0], feat, raw[1], raw[2]}, false},
		{"feature only", []Payload{feat}, false},
		{"corrupt raw mid-list", []Payload{raw[0], bad, raw[1]}, true},
		{"corrupt feature mid-list", []Payload{raw[0], feat, badFeat, raw[1]}, true},
	} {
		for _, icp := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/icp=%v", tc.name, icp), func(t *testing.T) {
				b := RawBackend{UseICP: icp}
				got, gotErr := b.Fuse(rx, tc.payloads)
				want, wantErr := referenceFuse(b, rx, tc.payloads)
				if (gotErr != nil) != tc.wantErr || (wantErr != nil) != tc.wantErr {
					t.Fatalf("errors %v and reference %v, want error: %v", gotErr, wantErr, tc.wantErr)
				}
				if tc.wantErr {
					if gotErr.Error() != wantErr.Error() || got != nil {
						t.Fatalf("Fuse = (%v, %v), reference error %v", got, gotErr, wantErr)
					}
					return
				}
				if icp && len(tc.payloads) == len(raw) && want.ICPCorrections[0] == 0 {
					t.Fatal("ICP applied no correction; the case tests nothing")
				}
				assertSameFuse(t, got, want)
			})
		}
	}
}

// TestFuseICPAtKeyLimit fuses a sender whose points align onto the
// int32 grid key limit (x cells up to math.MaxInt32 at the 1 m ICP
// cell). An int32 ring loop wraps there and never returns; Fuse must
// return, and match the always-search reference. The refinement must
// reuse certified answers there, in cells keyed math.MaxInt32.
func TestFuseICPAtKeyLimit(t *testing.T) {
	const top = float64(math.MaxInt32) // x of the last 1 m cell's lower edge
	world := func(seed int64) *pointcloud.Cloud {
		rng := rand.New(rand.NewSource(seed))
		c := pointcloud.New(2000)
		for i := 0; i < 600; i++ { // ground
			c.AppendXYZR(top-20+rng.Float64()*20.9, rng.Float64()*30-15, -1.73+rng.NormFloat64()*0.01, 0.2)
		}
		for i := 0; i < 500; i++ { // wall along y inside the last cell
			c.AppendXYZR(top+0.5+rng.NormFloat64()*0.02, rng.Float64()*16-8, rng.Float64()*2-1.5, 0.4)
		}
		for i := 0; i < 500; i++ { // wall along x
			c.AppendXYZR(top-18+rng.Float64()*18.8, 9+rng.NormFloat64()*0.02, rng.Float64()*2-1.5, 0.4)
		}
		for i := 0; i < 300; i++ { // a car-sized box
			c.AppendXYZR(top-8+rng.Float64()*3.9, -4+rng.Float64()*1.6, -1.5+rng.Float64()*1.4, 0.5)
		}
		return c
	}
	recvState := VehicleState{MountHeight: 1.7}
	sendState := VehicleState{GPS: geom.V3(0.15, -0.1, 0), MountHeight: 1.7}
	p, err := RawBackend{}.Encode(SensorFrame{State: sendState, Cloud: world(2)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rx := SensorFrame{State: recvState, Cloud: world(1)}
	payloads := []Payload{{SenderID: "edge", State: sendState, Data: p.Data}}
	type result struct {
		in  *FusedInput
		err error
	}
	done := make(chan result, 1)
	go func() {
		in, err := RawBackend{UseICP: true}.Fuse(rx, payloads)
		done <- result{in, err}
	}()
	var got result
	select {
	case got = <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("Fuse with ICP at the int32 key limit did not return")
	}
	if got.err != nil {
		t.Fatal(got.err)
	}
	want, err := referenceFuse(RawBackend{UseICP: true}, rx, payloads)
	if err != nil {
		t.Fatal(err)
	}
	assertSameFuse(t, got.in, want)
	assertFinite(t, got.in.Cloud)

	c, err := pointcloud.Decode(p.Data)
	if err != nil {
		t.Fatal(err)
	}
	icp := newICPReference(rx.Cloud, DefaultICPConfig())
	defer icp.release()
	icp.refine(Align(recvState, sendState, c))
	// A Match keeps its cell and certificate unexported: read them by
	// reflection.
	limit := 0
	for _, m := range icp.matches {
		v := reflect.ValueOf(m)
		if v.FieldByName("key").FieldByName("X").Int() == math.MaxInt32 && v.FieldByName("lb2").Float() > 0 {
			limit++
		}
	}
	if icp.reused == 0 || limit == 0 {
		t.Errorf("%d of %d queries reused, %d certified at the key limit; the case tests nothing", icp.reused, icp.queries, limit)
	}
}

// TestFuseOneMatchesAlignMerge pins the one-transmitter Fuse, which
// aligns straight into the merged cloud, to Merge(Align(...)).
func TestFuseOneMatchesAlignMerge(t *testing.T) {
	rx := VehicleState{GPS: geom.V3(3, -2, 0.1), Yaw: 0.3, MountHeight: 1.7}
	tx := VehicleState{GPS: geom.V3(-12, 7, 0), Yaw: -1.1, Pitch: 0.01, MountHeight: 1.9}
	a, b := structuredCloud(41), structuredCloud(42)
	got := Fuse(rx, tx, a, b)
	want := Merge(a, Align(rx, tx, b))
	assertSameFuse(t, &FusedInput{Cloud: got}, &FusedInput{Cloud: want})
}

package spod

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"cooper/internal/geom"
	"cooper/internal/lidar"
	"cooper/internal/pointcloud"
	"cooper/internal/scene"
)

// featureStressSetup senses two poses of a generated fleet scenario and
// builds the sender→receiver sensor-frame transform — the same alignment
// the fusion layer computes from exchanged vehicle states, built here
// from the scenario's ground-truth poses (spod cannot import fusion).
func featureStressSetup(t testing.TB) (receiver, sender *pointcloud.Cloud, tr geom.Transform, dist float64) {
	t.Helper()
	sc, err := scene.Generate(scene.GenParams{Family: "intersection", Fleet: 4, Seed: 11, Traffic: 6})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	scan := func(pose geom.Transform) *pointcloud.Cloud {
		return lidar.NewScanner(sc.LiDAR, sc.Seed).SetWorkers(1).
			ScanFrom(pose, sc.Scene.Targets(), sc.Scene.GroundZ).Cloud
	}
	receiver = scan(sc.Poses[0])
	sender = scan(sc.Poses[1])
	toWorld := lidar.SensorTransform(sc.Poses[1], sc.LiDAR.MountHeight).Inverse()
	worldToReceiver := lidar.SensorTransform(sc.Poses[0], sc.LiDAR.MountHeight)
	tr = worldToReceiver.Compose(toWorld)
	origin := tr.Apply(geom.V3(0, 0, 0))
	dist = math.Sqrt(origin.X*origin.X + origin.Y*origin.Y + origin.Z*origin.Z)
	return receiver, sender, tr, dist
}

// TestFeatureFuseByteIdentical50x is the feature backend's counterpart of
// TestDetectByteIdentical50x: fifty full transmit→wire→fuse→detect rounds
// — encode the sender's feature frame, serialise it, decode it at the
// receiver and run feature-level cooperative detection — cycling a
// reused scratch against fresh ones. Every round must produce
// byte-identical wire frames and identical detections: scratch reuse and
// encode order must both be invisible.
func TestFeatureFuseByteIdentical50x(t *testing.T) {
	receiverCloud, senderCloud, tr, dist := featureStressSetup(t)
	cfg := DefaultConfig()
	tx, rx := New(cfg), New(FeatureCoopConfig(cfg, dist))

	refWire := tx.EncodeFeatureFrame(senderCloud, nil).Encode()
	refFrame, err := DecodeFeatureFrame(refWire)
	if err != nil {
		t.Fatalf("reference wire frame does not decode: %v", err)
	}
	refDets, _ := rx.Detect(receiverCloud,
		[]RemoteFeatures{{Frame: refFrame, Transform: tr}}, nil)
	if len(refDets) == 0 {
		t.Fatal("reference fusion found no cars; scenario too sparse for the stress test")
	}

	reusedTx := NewScratch()
	reusedRx := NewScratch()
	for run := 0; run < 50; run++ {
		var txScratch, rxScratch *DetectorScratch
		if run%3 == 0 {
			txScratch, rxScratch = reusedTx, reusedRx
		}

		wire := tx.EncodeFeatureFrame(senderCloud, txScratch).Encode()
		if !bytes.Equal(wire, refWire) {
			t.Fatalf("run %d (reused=%v): wire frame differs", run, run%3 == 0)
		}
		frame, err := DecodeFeatureFrame(wire)
		if err != nil {
			t.Fatalf("run %d: wire frame does not decode: %v", run, err)
		}
		dets, _ := rx.Detect(receiverCloud,
			[]RemoteFeatures{{Frame: frame, Transform: tr}}, rxScratch)
		if !reflect.DeepEqual(dets, refDets) {
			t.Fatalf("run %d (reused=%v): fused detections differ\n got: %v\nwant: %v",
				run, run%3 == 0, dets, refDets)
		}
	}
}

// TestFeatureFusePayloadOrderInsensitive pins the fusion rule's claim to
// order-insensitivity: element-wise max must fuse two remotes to the same
// detections whichever order their payloads arrive in.
func TestFeatureFusePayloadOrderInsensitive(t *testing.T) {
	receiverCloud, senderCloud, tr, dist := featureStressSetup(t)
	cfg := DefaultConfig()
	coopCfg := FeatureCoopConfig(cfg, dist)

	frame := New(cfg).EncodeFeatureFrame(senderCloud, nil)
	// A second, partial remote: the same sender trimmed to half its wire
	// size, as a budget-capped round would deliver it.
	trimmed := frame.TrimToBudget(frame.EncodedSize() / 2)
	if trimmed.Sites() == 0 || trimmed.Sites() == frame.Sites() {
		t.Fatalf("trimmed frame not a strict subset: %d of %d sites", trimmed.Sites(), frame.Sites())
	}
	a := RemoteFeatures{Frame: frame, Transform: tr}
	b := RemoteFeatures{Frame: trimmed, Transform: tr}

	ab, _ := New(coopCfg).Detect(receiverCloud, []RemoteFeatures{a, b}, nil)
	ba, _ := New(coopCfg).Detect(receiverCloud, []RemoteFeatures{b, a}, nil)
	if !reflect.DeepEqual(ab, ba) {
		t.Fatalf("payload order changed fused detections\n ab: %v\n ba: %v", ab, ba)
	}
}

package store

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"cooper/internal/fusion"
	"cooper/internal/geom"
	"cooper/internal/pointcloud"
	"cooper/internal/spod"
)

// synthCloud builds a deterministic cloud: a ground plane plus a dense
// car-sized cluster so the detector has something to find.
func synthCloud(seed int64, n int) *pointcloud.Cloud {
	rng := rand.New(rand.NewSource(seed))
	c := pointcloud.New(n)
	for i := 0; i < n/2; i++ {
		c.AppendXYZR(rng.Float64()*40-20, rng.Float64()*40-20, -1.6+rng.Float64()*0.05, 0.2)
	}
	for i := n / 2; i < n; i++ {
		c.AppendXYZR(8+rng.Float64()*4, 2+rng.Float64()*1.8, -1.2+rng.Float64()*1.4, 0.6)
	}
	return c
}

func synthState(seed int64) fusion.VehicleState {
	rng := rand.New(rand.NewSource(seed))
	return fusion.VehicleState{
		GPS:         geom.V3(rng.Float64()*30, rng.Float64()*30, 0),
		Yaw:         rng.Float64(),
		Pitch:       rng.Float64() * 0.01,
		Roll:        rng.Float64() * 0.01,
		MountHeight: 1.73,
	}
}

// synthEpisode writes a two-round episode through the real fusion path
// and returns the encoded log.
func synthEpisode(t *testing.T) []byte {
	t.Helper()
	backend := fusion.RawBackend{}
	scratch := spod.NewScratch()
	recvState := synthState(1)
	sendState := synthState(2)
	recvCloud := synthCloud(10, 600)
	sendCloud := synthCloud(11, 600)

	var buf bytes.Buffer
	ew, err := NewEpisodeWriter(&buf, Header{
		Label: "synth", Scenario: "unit", Seed: 7, Frames: 2, Hz: 10,
		Backend: backend.Name(), Wire: "raw",
	})
	if err != nil {
		t.Fatal(err)
	}
	pay, err := backend.Encode(fusion.SensorFrame{State: sendState, Cloud: sendCloud}, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if err := ew.WriteFrame(Frame{Frame: 0, Sender: "v1", Seq: 1, State: sendState, Payload: pay.Data}); err != nil {
		t.Fatal(err)
	}

	cfg := spod.DefaultConfig()
	// Warmup round: single-shot detection.
	warm := Round{Frame: 0, Receiver: "v0", State: recvState, Own: recvCloud, Warmup: true,
		FOVTop: cfg.VerticalFOVTop, MaxRange: cfg.MaxDetectionRange}
	dets0, _ := spod.New(detectorFor(warm)).Detect(recvCloud, nil, scratch)
	if err := ew.WriteRound(warm); err != nil {
		t.Fatal(err)
	}
	if err := ew.WriteDetections(Detections{Frame: 0, Receiver: "v0", Dets: dets0}); err != nil {
		t.Fatal(err)
	}

	// Cooperative round through Backend.Fuse.
	coop := Round{Frame: 1, Receiver: "v0", State: recvState, Own: recvCloud,
		OverrideMaxDist: true, MaxDist: 12.5,
		FOVTop: cfg.VerticalFOVTop, MaxRange: cfg.MaxDetectionRange,
		LatencyUS: 2500, StalenessUS: 100000, PayloadBytes: int64(len(pay.Data)),
		Payloads: []RoundPayload{{Sender: "v1", State: sendState, Data: pay.Data}},
	}
	in, err := backend.Fuse(fusion.SensorFrame{State: recvState, Cloud: recvCloud},
		[]fusion.Payload{{SenderID: "v1", State: sendState, Data: pay.Data}})
	if err != nil {
		t.Fatal(err)
	}
	in.MaxDist = coop.MaxDist
	dets1, _ := in.Detect(detectorFor(coop), scratch)
	if err := ew.WriteRound(coop); err != nil {
		t.Fatal(err)
	}
	if err := ew.WriteDetections(Detections{Frame: 1, Receiver: "v0", Dets: dets1}); err != nil {
		t.Fatal(err)
	}
	if err := ew.WriteTracks(Tracks{Frame: 1, Receiver: "v0", Tracks: []TrackState{
		{ID: 1, Box: geom.NewBox(geom.V3(9, 2.5, -0.6), 4.2, 1.8, 1.5, 0.1), VelX: 1.5, VelY: -0.2, Hits: 2},
	}}); err != nil {
		t.Fatal(err)
	}
	if err := ew.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRecordRoundTrip(t *testing.T) {
	h := Header{Label: "lab", Scenario: "city", Seed: -3, Frames: 40, Hz: 2.5, Backend: "raw", UseICP: true, Wire: "cpd1"}
	if got, err := DecodeHeader(EncodeHeader(h)); err != nil || !reflect.DeepEqual(got, h) {
		t.Fatalf("header round-trip: %+v err=%v", got, err)
	}
	f := Frame{Frame: 3, Sender: "v2", Seq: 17, State: synthState(5), Payload: []byte{1, 2, 3}}
	if got, err := DecodeFrame(EncodeFrame(f)); err != nil || !reflect.DeepEqual(got, f) {
		t.Fatalf("frame round-trip: %+v err=%v", got, err)
	}
	r := Round{Frame: 9, Receiver: "v0", State: synthState(6), Own: synthCloud(1, 8),
		Warmup: false, OverrideMaxDist: true, MaxDist: math.Pi,
		FOVTop: 2.0, MaxRange: 70, LatencyUS: 1, StalenessUS: 2, PayloadBytes: 3, Lost: 4,
		Payloads: []RoundPayload{{Sender: "v1", State: synthState(7), Data: []byte{9}}}}
	got, err := DecodeRound(EncodeRound(r))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Payloads, r.Payloads) || got.MaxDist != r.MaxDist || got.Own.Len() != r.Own.Len() {
		t.Fatalf("round round-trip: %+v", got)
	}
	for i := 0; i < r.Own.Len(); i++ {
		if got.Own.At(i) != r.Own.At(i) {
			t.Fatalf("round cloud point %d: %v != %v", i, got.Own.At(i), r.Own.At(i))
		}
	}
	d := Detections{Frame: 2, Receiver: "v0", Dets: []spod.Detection{
		{Box: geom.NewBox(geom.V3(1, 2, 3), 4, 5, 6, 7), Score: 0.5, NumPoints: 42}}}
	if got, err := DecodeDetections(EncodeDetections(d)); err != nil || !reflect.DeepEqual(got, d) {
		t.Fatalf("detections round-trip: %+v err=%v", got, err)
	}
	tr := Tracks{Frame: 2, Receiver: "v0", Tracks: []TrackState{
		{ID: 5, Box: geom.NewBox(geom.V3(1, 2, 3), 4, 5, 6, 7), VelX: 1, VelY: 2, Hits: 3, Misses: 1}}}
	if got, err := DecodeTracks(EncodeTracks(tr)); err != nil || !reflect.DeepEqual(got, tr) {
		t.Fatalf("tracks round-trip: %+v err=%v", got, err)
	}
}

func TestEpisodeRoundTrip(t *testing.T) {
	raw := synthEpisode(t)
	ep, err := ReadEpisode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !ep.Complete || ep.End.Frames != 1 || ep.End.Rounds != 2 {
		t.Fatalf("end record: complete=%v end=%+v", ep.Complete, ep.End)
	}
	if len(ep.Frames) != 1 || len(ep.Rounds) != 2 || len(ep.Detections) != 2 || len(ep.Tracks) != 1 {
		t.Fatalf("decoded counts: %d frames %d rounds %d dets %d tracks",
			len(ep.Frames), len(ep.Rounds), len(ep.Detections), len(ep.Tracks))
	}
	if ep.Header.Label != "synth" || ep.Header.Backend != "raw" {
		t.Fatalf("header: %+v", ep.Header)
	}
}

// TestEpisodeFinishOnce pins Finish: the first call ends the log and
// flushes it, Close after it writes no second End record, appending
// after it is an error, and a nil writer has nothing to finish.
func TestEpisodeFinishOnce(t *testing.T) {
	var buf bytes.Buffer
	ew, err := NewEpisodeWriter(&buf, Header{Label: "finish"})
	if err != nil {
		t.Fatal(err)
	}
	if err := ew.WriteFrame(Frame{Sender: "v1", Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if err := ew.Finish(); err != nil {
		t.Fatal(err)
	}
	finished := buf.Len()
	if ep, err := ReadEpisode(bytes.NewReader(buf.Bytes())); err != nil || !ep.Complete || ep.End.Frames != 1 {
		t.Fatalf("log after Finish: %+v, %v", ep, err)
	}
	if err := ew.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := ew.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != finished || ew.Records() != 3 {
		t.Errorf("Finish then Close wrote %d more bytes, %d records; want one End record",
			buf.Len()-finished, ew.Records())
	}
	if err := ew.WriteFrame(Frame{Sender: "v1", Seq: 2}); err == nil {
		t.Error("append after End accepted")
	}
	var none *EpisodeWriter
	if err := none.Finish(); err != nil {
		t.Errorf("nil writer: %v", err)
	}
}

// TestReplayByteIdentical is the package's core acceptance property:
// replaying a stored episode through the live fusion path reproduces
// the recorded fused detections byte for byte.
func TestReplayByteIdentical(t *testing.T) {
	raw := synthEpisode(t)
	ep, err := ReadEpisode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	dets, stats, err := ReplayEpisode(ep)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Identical() {
		t.Fatalf("replay diverged: %v", stats)
	}
	if len(dets) != 2 {
		t.Fatalf("replayed %d rounds", len(dets))
	}
	// And the recomputation is non-trivial: the cooperative round saw
	// the merged cloud, not just the receiver's own points.
	if len(ep.Rounds[1].Payloads) == 0 {
		t.Fatal("cooperative round stored no payloads")
	}
}

func TestReplayDetectsTampering(t *testing.T) {
	raw := synthEpisode(t)
	ep, err := ReadEpisode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a recorded detection score (bit-level change) and confirm
	// the replay verdict flips.
	tampered := false
	for i := range ep.Detections {
		if len(ep.Detections[i].Dets) > 0 {
			ep.Detections[i].Dets[0].Score += 1e-9
			tampered = true
			break
		}
	}
	if !tampered {
		t.Skip("synthetic episode produced no detections to tamper with")
	}
	_, stats, err := ReplayEpisode(ep)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Identical() {
		t.Fatal("tampered detections still verified as identical")
	}
}

func TestTruncatedLogNeverPanics(t *testing.T) {
	raw := synthEpisode(t)
	// A cut inside the 8-byte file header leaves no log to read: a clean
	// error, never a panic.
	for cut := 0; cut < 8; cut++ {
		if _, err := ReadEpisode(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("log cut inside its file header at %d read without error", cut)
		}
	}
	// Every later cut — at a record boundary or inside a record, as a
	// crash mid-append leaves the log — reads back the prefix of whole
	// records: no error, record counts that never shrink as the cut
	// moves on, and the full log at the end.
	counts := func(ep *Episode) [5]int {
		return [5]int{len(ep.Frames), len(ep.Rounds), len(ep.Detections), len(ep.Tracks), btoi(ep.Complete)}
	}
	var prev [5]int
	for cut := 8; cut <= len(raw); cut++ {
		ep, err := ReadEpisode(bytes.NewReader(raw[:cut]))
		if err != nil {
			t.Fatalf("log cut at %d/%d: %v", cut, len(raw), err)
		}
		if ep.Complete && cut != len(raw) {
			t.Fatalf("truncated log at %d/%d read as complete", cut, len(raw))
		}
		got := counts(ep)
		for i := range got {
			if got[i] < prev[i] {
				t.Fatalf("log cut at %d/%d decoded %v records, fewer than the shorter cut's %v", cut, len(raw), got, prev)
			}
		}
		prev = got
	}
	full, err := ReadEpisode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if prev != counts(full) || !full.Complete || len(full.Rounds) == 0 {
		t.Fatalf("full log decoded %v records, want the complete episode", prev)
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestCorruptRecordDetected(t *testing.T) {
	raw := synthEpisode(t)
	// Flip one payload byte past the file header: the CRC must catch it.
	bad := append([]byte(nil), raw...)
	bad[20] ^= 0xff
	r, err := NewReader(bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	for {
		_, err := r.Next()
		if err == io.EOF {
			t.Fatal("corrupt log read to EOF without error")
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) {
				t.Fatalf("unexpected error class: %v", err)
			}
			break
		}
	}
}

func TestWriterRejectsOversizeRecord(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(Record{Type: RecFrame, Data: make([]byte, maxRecord+1)}); err == nil {
		t.Fatal("oversize record accepted")
	}
}

func TestDir(t *testing.T) {
	d, err := OpenDir(filepath.Join(t.TempDir(), "episodes"))
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "../evil", "a/b", "x y", ".."} {
		if _, err := d.Create(bad, Header{}); err == nil {
			t.Fatalf("id %q accepted", bad)
		}
	}
	ew, err := d.Create("run-1", Header{Label: "run-1", Backend: "raw"})
	if err != nil {
		t.Fatal(err)
	}
	cfg := spod.DefaultConfig()
	if err := ew.WriteRound(Round{Frame: 0, Receiver: "v0", State: synthState(1),
		Own: synthCloud(3, 64), Warmup: true,
		FOVTop: cfg.VerticalFOVTop, MaxRange: cfg.MaxDetectionRange}); err != nil {
		t.Fatal(err)
	}
	scratch := spod.NewScratch()
	dets, _ := spod.New(cfg).Detect(synthCloud(3, 64), nil, scratch)
	if err := ew.WriteDetections(Detections{Frame: 0, Receiver: "v0", Dets: dets}); err != nil {
		t.Fatal(err)
	}
	if err := ew.Close(); err != nil {
		t.Fatal(err)
	}
	ids, err := d.List()
	if err != nil || len(ids) != 1 || ids[0] != "run-1" {
		t.Fatalf("list: %v err=%v", ids, err)
	}
	_, stats, err := d.Replay("run-1")
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Identical() {
		t.Fatalf("dir replay diverged: %v", stats)
	}
	if _, err := d.Read("missing"); err == nil {
		t.Fatal("reading a missing episode succeeded")
	}
}

// TestLogDeterministic: two identical synthetic runs write identical
// log bytes — the no-wall-clock contract of the format.
func TestLogDeterministic(t *testing.T) {
	a := synthEpisode(t)
	b := synthEpisode(t)
	if !bytes.Equal(a, b) {
		t.Fatal("identical runs produced different log bytes")
	}
}

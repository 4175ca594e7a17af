package core

import (
	"fmt"
	"testing"
	"time"

	"cooper/internal/fusion"
	"cooper/internal/network"
	"cooper/internal/scene"
)

// renderEpisode flattens an episode result — every per-frame field
// including the loss accounting, plus the temporal metrics — into one
// string for byte-exact comparison.
func renderEpisode(t *testing.T, lab *EpisodeLab, opts EpisodeOptions) string {
	t.Helper()
	res, err := lab.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	out := ""
	for _, f := range res.Frames {
		out += fmt.Sprintf("%d %v %d %v %v %d %d %d %+v %+v\n",
			f.Index, f.At, f.SenderFrame, f.Staleness, f.RoundLatency,
			f.Senders, f.Lost, f.PayloadBytes, f.Single, f.Coop)
	}
	out += fmt.Sprintf("%+v tracks=%d dropped=%d", res.Temporal, res.Tracks, res.DroppedSlots)
	return out
}

// TestEpisodeZeroLossIsLossless locks the degraded-world layer's no-op:
// a zero-rate loss model (and zero drift) must reproduce the clean
// episode byte for byte. Every episode reads its timeline from the loss
// model, and a zero-rate model delivers every slot at its round's Ready
// whatever its seed.
func TestEpisodeZeroLossIsLossless(t *testing.T) {
	sc, err := scene.Generate(scene.GenParams{Family: scene.FamilyPlatoon, Fleet: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	lab := NewEpisodeLab(sc)
	opts := EpisodeOptions{Frames: 4, Hz: 2, Delay: 250 * time.Millisecond, Compensate: true, Workers: 0}
	clean := renderEpisode(t, lab, opts)
	opts.Loss = network.DefaultLoss(0, 99)
	if got := renderEpisode(t, lab, opts); got != clean {
		t.Errorf("zero-rate loss model perturbed the episode:\nclean:\n%s\ngot:\n%s", clean, got)
	}
}

// TestEpisodeLossyDeterministic is the fault-injection determinism
// stress: the same lossy, drifting, ICP-corrected episode re-run many
// times, alternating sequential and fanned-out workers on a shared lab,
// must be byte-identical every single time. Under -race this also
// proves the chaos path shares the capture cache safely.
func TestEpisodeLossyDeterministic(t *testing.T) {
	sc, err := scene.Generate(scene.GenParams{Family: scene.FamilyPlatoon, Fleet: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	lab := NewEpisodeLab(sc)
	opts := EpisodeOptions{
		Frames: 4, Hz: 2, Delay: 250 * time.Millisecond,
		Loss:  network.DefaultLoss(0.3, 7),
		Drift: 0.8, Correct: true,
	}
	opts.Workers = 1
	want := renderEpisode(t, lab, opts)
	runs := 50
	if testing.Short() {
		runs = 5
	}
	for i := 0; i < runs; i++ {
		opts.Workers = []int{1, 4, 0}[i%3]
		if got := renderEpisode(t, lab, opts); got != want {
			t.Fatalf("run %d (workers=%d) diverged:\nwant:\n%s\ngot:\n%s", i, opts.Workers, want, got)
		}
	}
	// A fresh lab must agree with the shared one.
	opts.Workers = 0
	if got := renderEpisode(t, NewEpisodeLab(sc), opts); got != want {
		t.Errorf("fresh-lab lossy episode diverged from shared lab")
	}
}

// TestEpisodeLossPartialRounds drives a heavy-loss episode and checks
// the delivered-subset accounting: fused frames carry Senders+Lost equal
// to the fleet's sender count, staleness only grows past the clean
// round age when a sender fell back to an older frame, and the channel
// did visibly drop something.
func TestEpisodeLossPartialRounds(t *testing.T) {
	sc, err := scene.Generate(scene.GenParams{Family: scene.FamilyPlatoon, Fleet: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunEpisode(sc, EpisodeOptions{
		Frames: 6, Hz: 2, Workers: 1,
		Loss: network.LossModel{DropRate: 0.5, Seed: 11},
	})
	if err != nil {
		t.Fatal(err)
	}
	nSenders := len(res.Case.Senders())
	lost := 0
	for _, f := range res.Frames {
		if f.SenderFrame < 0 {
			if f.Senders != 0 || f.Lost != 0 {
				t.Errorf("frame %d: fallback frame must fuse nothing, got %+v", f.Index, f)
			}
			if f.Coop != f.Single {
				t.Errorf("frame %d: fallback coop must equal single shot", f.Index)
			}
			continue
		}
		if f.Senders+f.Lost != nSenders {
			t.Errorf("frame %d: Senders %d + Lost %d != %d senders", f.Index, f.Senders, f.Lost, nSenders)
		}
		if f.Senders < 1 {
			t.Errorf("frame %d: fused frame with no senders", f.Index)
		}
		if minAge := f.At - time.Duration(f.SenderFrame)*500*time.Millisecond; f.Staleness < minAge {
			t.Errorf("frame %d: staleness %v below newest fused age %v", f.Index, f.Staleness, minAge)
		}
		lost += f.Lost
	}
	if lost == 0 {
		t.Error("50% drop rate over 6 frames × 3 senders lost nothing; loss model not engaged")
	}
}

// TestEpisodeDroppedSlotsCountsBroadcasts pins the channel's drop count
// to the broadcast slots it lost, not to the senders a frame had to fuse
// without: on this canyon episode frame 3 fuses a sender's frame 0,
// 1500 ms stale, so that sender's frames 1 and 2 were both dropped even
// though no frame went without a sender. A clean channel drops nothing.
func TestEpisodeDroppedSlotsCountsBroadcasts(t *testing.T) {
	sc, err := scene.Generate(scene.GenParams{Family: scene.FamilyCanyon, Fleet: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	opts := EpisodeOptions{Frames: 4, Hz: 2, Compensate: true, Correct: true, Drift: 0.5,
		Loss: network.DefaultLoss(0.2, 1)}
	res, err := RunEpisode(sc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Frames[3].Staleness; got != 1500*time.Millisecond {
		t.Fatalf("frame 3 fused a %v-stale frame, want 1500ms", got)
	}
	if res.DroppedSlots < 2 {
		t.Errorf("DroppedSlots = %d, want at least the 2 broadcasts frame 3 fell back over", res.DroppedSlots)
	}
	opts.Loss = network.LossModel{}
	if res, err = RunEpisode(sc, opts); err != nil {
		t.Fatal(err)
	}
	if res.DroppedSlots != 0 {
		t.Errorf("clean channel dropped %d slots", res.DroppedSlots)
	}
}

// TestEpisodeLossDropAllFallsBack wipes the channel out entirely: every
// frame must fall back to the receiver's single shot — never an error,
// never a stale mix without the in-band accounting saying so.
func TestEpisodeLossDropAllFallsBack(t *testing.T) {
	sc, err := scene.Generate(scene.GenParams{Family: scene.FamilyPlatoon, Fleet: 3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunEpisode(sc, EpisodeOptions{
		Frames: 3, Hz: 2, Workers: 2,
		Loss: network.LossModel{DropRate: 1, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Frames {
		if f.SenderFrame != -1 || f.Senders != 0 {
			t.Errorf("frame %d fused through a fully dropped channel: %+v", f.Index, f)
		}
		if f.Coop != f.Single {
			t.Errorf("frame %d: drop-all coop must equal single shot", f.Index)
		}
	}
}

// TestEpisodeLossWireV3 runs the delta-coded wire through a lossy
// channel: a delta frame whose keyframe was dropped must not be fused
// (the receiver cannot reconstruct it), and the whole path stays
// deterministic. The run must never error — keyframe gaps degrade to
// older delivered frames, exactly like any other loss.
func TestEpisodeLossWireV3(t *testing.T) {
	sc, err := scene.Generate(scene.GenParams{Family: scene.FamilyPlatoon, Fleet: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	lab := NewEpisodeLab(sc)
	opts := EpisodeOptions{
		Frames: 6, Hz: 2, Wire: "v3", KeyframeInterval: 3, Workers: 0,
		Loss: network.DefaultLoss(0.35, 13),
	}
	want := renderEpisode(t, lab, opts)
	for _, workers := range []int{1, 4} {
		opts.Workers = workers
		if got := renderEpisode(t, lab, opts); got != want {
			t.Fatalf("lossy v3 episode diverged at workers=%d", workers)
		}
	}
}

// TestEpisodeDriftDeterministicAndDegrading checks the localization
// walk: drift is byte-deterministic across worker counts, and a heavy
// drift bound cannot improve on exact localization (the fused recall is
// at most the clean run's — misaligned clouds never help).
func TestEpisodeDriftDeterministicAndDegrading(t *testing.T) {
	sc, err := scene.Generate(scene.GenParams{Family: scene.FamilyPlatoon, Fleet: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	lab := NewEpisodeLab(sc)
	clean, err := lab.Run(EpisodeOptions{Frames: 4, Hz: 2, Workers: 0})
	if err != nil {
		t.Fatal(err)
	}
	opts := EpisodeOptions{Frames: 4, Hz: 2, Drift: 3.0, Workers: 1}
	want := renderEpisode(t, lab, opts)
	opts.Workers = 4
	if got := renderEpisode(t, lab, opts); got != want {
		t.Fatalf("drifted episode diverged across worker counts")
	}
	drifted, err := lab.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if drifted.MeanCoopRecall() > clean.MeanCoopRecall()+1e-9 {
		t.Errorf("3 m drift improved fused recall: %.3f > %.3f", drifted.MeanCoopRecall(), clean.MeanCoopRecall())
	}
}

// TestEpisodeCorrectValidation locks the correction stage's contract:
// ICP correction is raw-cloud alignment, so feature backends must be
// rejected, and a corrected clean episode must run without error.
func TestEpisodeCorrectValidation(t *testing.T) {
	sc, err := scene.Generate(scene.GenParams{Family: scene.FamilyPlatoon, Fleet: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunEpisode(sc, EpisodeOptions{
		Frames: 2, Hz: 2, Workers: 1, Correct: true,
		Backend: fusion.DefaultFeatureBackend(),
	}); err == nil {
		t.Fatal("Correct with the feature backend should be rejected")
	}
	if _, err := RunEpisode(sc, EpisodeOptions{Frames: 2, Hz: 2, Workers: 1, Correct: true}); err != nil {
		t.Fatalf("corrected raw episode failed: %v", err)
	}
}

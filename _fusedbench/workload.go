package main

import (
	"fmt"
	"time"

	"cooper/internal/core"
	"cooper/internal/fusion"
	"cooper/internal/network"
	"cooper/internal/parallel"
	"cooper/internal/pointcloud"
	"cooper/internal/scene"
)

// Wire names the encoding fleet vehicles publish with.
type wire string

const (
	wireCPQ1 wire = "cpq1" // full quantized frames (Client.Publish)
	wireCPD1 wire = "cpd1" // keyframe+delta stream (Client.PublishDelta)
	wireCPF3 wire = "cpf3" // F-Cooper feature frames (Client.PublishFeatures)
)

// egos is the number of vehicles that request fusion rounds: the closed
// loop's clients. Each holds its own TCP session with the hub.
const egos = 2

// simHz is the capture rate of the pre-sensed ticks in sim time.
const simHz = 10

// workload is one fused-frame configuration: the world, the fleet, the
// wire and fusion strategy, and the degraded-world knobs.
type workload struct {
	name   string
	family scene.Family
	fleet  int
	// k is the number of senders each ego requests per round.
	k int
	// budgets is each ego's advertised bandwidth cap in bit/s (0 =
	// uncapped); the hub fits round payloads under it with roi.Select.
	budgets [egos]uint64
	wire    wire
	backend fusion.Backend
	// loss is the hub's seeded publish drop rate (network.DefaultLoss).
	loss float64
	// drift bounds the seeded localization-error walk, in metres, added
	// to every published and requesting state.
	drift float64
	// store appends every ego frame to an in-memory episode log that is
	// replay-verified, off the clock, at the end of every pass.
	store bool
	// scenes is the number of generated worlds per run and ticksPerScene
	// the consecutive 10 Hz captures sensed in each; the timed loop cycles
	// through all scenes×ticksPerScene ticks. Several small worlds per run
	// average out how much one seed's layout favours the fleet.
	scenes, ticksPerScene int
}

var workloads = []workload{
	{
		name:    "budget-roi",
		family:  scene.FamilyHighway,
		fleet:   6,
		k:       5,
		budgets: [egos]uint64{8e6, 1.6e6},
		wire:    wireCPQ1,
		backend: fusion.RawBackend{},
		scenes:  18, ticksPerScene: 1,
	},
	{
		name:    "delta-icp",
		family:  scene.FamilyCanyon,
		fleet:   4,
		k:       3,
		wire:    wireCPD1,
		backend: fusion.RawBackend{UseICP: true},
		loss:    0.05,
		drift:   0.5,
		store:   true,
		scenes:  18, ticksPerScene: 2,
	},
	{
		name:    "feature-cpf3",
		family:  scene.FamilyIntersection,
		fleet:   4,
		k:       3,
		wire:    wireCPF3,
		backend: fusion.DefaultFeatureBackend(),
		scenes:  10, ticksPerScene: 3,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// tickInput is everything one tick consumes, sensed before any clock
// starts: the world snapshot (ground truth for scoring) and every fleet
// vehicle's sensor frame at the true pose.
type tickInput struct {
	snap   *scene.Scenario
	frames []fusion.SensorFrame
	// cpq1Bytes is each frame's full quantized size, the base of the
	// delta ratio.
	cpq1Bytes []int
}

// inputs is a workload's generated input set.
type inputs struct {
	name   string
	ticks  []tickInput
	labels []string
	// drift[i][t] is vehicle i's localization error at tick t.
	drift [][]scene.PoseError
	loss  network.LossModel
	// scanMS holds the wall time of every LiDAR ray-cast, reported as
	// the input generator's cost; it is never on a timed path.
	scanMS []float64
}

// generate builds a workload's inputs from the seed alone: the worlds,
// every (tick, vehicle) capture, the drift walks and the loss model.
func generate(w workload, seed int64, workers int) (*inputs, error) {
	in := &inputs{name: fmt.Sprintf("%s/f%d/s%d", w.family, w.fleet, seed)}
	type capture struct {
		frame fusion.SensorFrame
		ms    float64
	}
	for s := 0; s < w.scenes; s++ {
		sc, err := scene.Generate(scene.GenParams{Family: w.family, Fleet: w.fleet, Seed: seed*1009 + int64(s)})
		if err != nil {
			return nil, err
		}
		in.labels = sc.PoseLabels
		for t := 0; t < w.ticksPerScene; t++ {
			snap := sc.At(time.Duration(float64(t) / simHz * float64(time.Second)))
			caps, err := parallel.MapErr(workers, w.fleet, func(i int) (capture, error) {
				v := core.PoseVehicleSeeded(snap, i, sc.Seed+int64(i)*997+int64(t)*100003).SetWorkers(1)
				start := time.Now()
				v.Sense(snap.Scene.Targets(), snap.Scene.GroundZ)
				ms := msSince(start)
				f, err := v.SensorFrame(nil)
				return capture{frame: f, ms: ms}, err
			})
			if err != nil {
				return nil, err
			}
			ti := tickInput{snap: snap}
			for _, c := range caps {
				ti.frames = append(ti.frames, c.frame)
				ti.cpq1Bytes = append(ti.cpq1Bytes, pointcloud.EncodedSizeQuantized(c.frame.Cloud.Len()))
				in.scanMS = append(in.scanMS, c.ms)
			}
			in.ticks = append(in.ticks, ti)
		}
	}
	if w.drift > 0 {
		in.drift = make([][]scene.PoseError, w.fleet)
		for i := range in.drift {
			in.drift[i] = scene.DriftWalk(seed*1000003+int64(i)*7919+11, w.drift, len(in.ticks))
		}
	}
	if w.loss > 0 {
		in.loss = network.DefaultLoss(w.loss, seed)
	}
	return in, nil
}

// state is vehicle i's reported GPS/IMU state at global tick g: the true
// capture state plus the vehicle's drift at that tick.
func (in *inputs) state(i, g int) fusion.VehicleState {
	t := g % len(in.ticks)
	st := in.ticks[t].frames[i].State
	if in.drift != nil {
		e := in.drift[i][t]
		st.GPS.X += e.X
		st.GPS.Y += e.Y
		st.Yaw += e.Yaw
	}
	return st
}

// poseIndex maps a vehicle label back to its pose index.
func (in *inputs) poseIndex(label string) (int, bool) {
	for i, l := range in.labels {
		if l == label {
			return i, true
		}
	}
	return 0, false
}

package core

import (
	"fmt"
	"math/rand"
	"sync"

	"cooper/internal/eval"
	"cooper/internal/fusion"
	"cooper/internal/parallel"
	"cooper/internal/pointcloud"
	"cooper/internal/scene"
	"cooper/internal/spod"
)

// AreaRange returns the detection-area radius used when classifying
// ground-truth objects as in or out of a pose's detection area: 70 m for
// the 64-beam KITTI-like data, 45 m for the much sparser 16-beam T&J-like
// data (§IV uses the "actual detection distance of LiDAR").
func AreaRange(ds scene.Dataset) float64 {
	if ds == scene.DatasetTJ {
		return 45
	}
	return 70
}

// CarRow is one row of the Fig. 3/6 detection matrices: one ground-truth
// car with its three cells (single shot i, single shot j, cooperative).
type CarRow struct {
	CarID int
	// Band is the distance colouring relative to the receiving vehicle.
	Band eval.DistanceBand
	// I, J and Coop are the three column cells.
	I, J, Coop eval.Cell
}

// CaseOutcome is everything one cooperative case produces.
type CaseOutcome struct {
	Scenario *scene.Scenario
	Case     scene.CoopCase
	// DeltaD is the inter-vehicle distance.
	DeltaD float64
	// Rows holds the per-car detection matrix.
	Rows []CarRow
	// Detections per column.
	DetsI, DetsJ, DetsCoop []spod.Detection
	// Stats per column (detection latency, stage instrumentation).
	StatsI, StatsJ, StatsCoop spod.Stats
	// FPI, FPJ, FPCoop count unmatched detections per column.
	FPI, FPJ, FPCoop int
	// PayloadBytes is the total wire size of the exchanged (quantized)
	// clouds — the sum over every sender of the case.
	PayloadBytes int
	// SenderPayloads holds each sender's wire size and SenderCloudPoints
	// each sender's transmitted point count, in Case.Senders() order (a
	// single entry for the paper's pairwise cases).
	SenderPayloads    []int
	SenderCloudPoints []int
	// CloudPointsI/J/Coop are the detector input sizes.
	CloudPointsI, CloudPointsJ, CloudPointsCoop int
}

// Column projects one column of the case's matrix, in row order: 0 is
// the receiver's single shot I, 1 the sender's single shot J, anything
// else the cooperative column.
func (o *CaseOutcome) Column(col int) []eval.Cell {
	out := make([]eval.Cell, len(o.Rows))
	for k, r := range o.Rows {
		switch col {
		case 0:
			out[k] = r.I
		case 1:
			out[k] = r.J
		default:
			out[k] = r.Coop
		}
	}
	return out
}

// RunOptions adjusts a case run.
type RunOptions struct {
	// Drift skews the transmitter's reported GPS per Fig. 10.
	Drift fusion.DriftMode
	// DriftSeed fixes the drift directions.
	DriftSeed int64
	// UseICP enables the ICP alignment refinement after GPS alignment
	// (raw backend only).
	UseICP bool
	// Filter optionally restricts the exchanged cloud (ROI categories).
	Filter CloudFilter
	// Backend selects the fusion strategy; nil means raw-cloud fusion.
	Backend fusion.Backend
	// BudgetBytes caps each sender's payload, selecting through the
	// backend's ROI ladder; <= 0 transmits the full encoding.
	BudgetBytes int
}

// backend resolves the run's fusion backend, folding the ICP knob into
// the default raw strategy.
func (o RunOptions) backend() fusion.Backend {
	switch b := o.Backend.(type) {
	case nil:
		return fusion.RawBackend{UseICP: o.UseICP}
	case fusion.RawBackend:
		if o.UseICP {
			b.UseICP = true
		}
		return b
	default:
		return o.Backend
	}
}

// ScenarioRunner evaluates a scenario's cooperative cases. It caches each
// pose's scan so that a pose shared by several cases (car1 in Fig. 6) is
// sensed exactly once, matching the paper's reuse of captured frames.
//
// A runner may evaluate cases concurrently (SetWorkers); outcomes are
// deterministic — ordering and values identical to the sequential path —
// because every pose's sensing uses that vehicle's own seeded RNG and all
// per-case state is private to the case.
type ScenarioRunner struct {
	sc       *scene.Scenario
	vehicles []*Vehicle
	clouds   []*pointcloud.Cloud // FOV-cropped, per pose
	sensed   []sync.Once         // guards clouds[i] under concurrent cases
	workers  int
}

// NewScenarioRunner prepares vehicles for every pose of the scenario.
func NewScenarioRunner(sc *scene.Scenario) *ScenarioRunner {
	r := &ScenarioRunner{
		sc:       sc,
		vehicles: make([]*Vehicle, len(sc.Poses)),
		clouds:   make([]*pointcloud.Cloud, len(sc.Poses)),
		sensed:   make([]sync.Once, len(sc.Poses)),
	}
	for i := range sc.Poses {
		r.vehicles[i] = PoseVehicle(sc, i)
	}
	return r
}

// Vehicle returns the prepared vehicle for a pose index.
func (r *ScenarioRunner) Vehicle(i int) *Vehicle { return r.vehicles[i] }

// SetWorkers bounds the goroutines RunAll (and pose pre-sensing) uses for
// case-level fan-out; < 1 selects one per CPU. Calling it also pins every
// vehicle's scanner to one goroutine: case-level parallelism already
// saturates the cores, and nested fan-out would only add scheduling
// overhead. Detection always runs on the case's goroutine, so
// SetWorkers(1) yields the fully sequential baseline. Outcomes are
// identical at any worker count.
func (r *ScenarioRunner) SetWorkers(n int) *ScenarioRunner {
	r.workers = n
	for _, v := range r.vehicles {
		v.SetWorkers(1)
	}
	return r
}

// cloudFor senses (once) and returns the pose's evaluation cloud, cropped
// to the scenario's front FOV when one is defined. Safe for concurrent
// cases: each pose is sensed exactly once, by whichever case gets there
// first, and sensing depends only on that vehicle's own seeded RNG.
func (r *ScenarioRunner) cloudFor(i int) *pointcloud.Cloud {
	r.sensed[i].Do(func() {
		cloud := r.vehicles[i].Sense(r.sc.Scene.Targets(), r.sc.Scene.GroundZ)
		if r.sc.FrontFOV > 0 {
			cloud = cloud.CropFOV(0, r.sc.FrontFOV/2)
		}
		r.clouds[i] = cloud
	})
	return r.clouds[i]
}

// PreSense senses every pose that appears in a cooperative case, in
// parallel across poses. Each Vehicle owns its seeded RNG, so per-pose
// sensing is deterministic regardless of scheduling. RunAll calls this
// before fanning out cases; calling it earlier just front-loads the work.
func (r *ScenarioRunner) PreSense() {
	used := make([]bool, len(r.vehicles))
	for _, c := range r.sc.Cases {
		used[c.I] = true
		for _, s := range c.Senders() {
			used[s] = true
		}
	}
	var poses []int
	for i, u := range used {
		if u {
			poses = append(poses, i)
		}
	}
	parallel.For(r.workers, len(poses), func(k int) {
		r.cloudFor(poses[k])
	})
}

// RunCase executes one cooperative case: the receiver's and primary
// sender's single shots plus the merged Cooper pass fusing every
// sender's transmitted cloud (K clouds for an N-way fleet case), with
// the paper's cell bookkeeping.
func (r *ScenarioRunner) RunCase(c scene.CoopCase, opts RunOptions) (*CaseOutcome, error) {
	return r.runCase(c, opts, nil)
}

// runCase is RunCase detecting inside the given scratch (nil draws from
// the shared pool); RunAll threads one scratch per worker through here.
func (r *ScenarioRunner) runCase(c scene.CoopCase, opts RunOptions, scratch *spod.DetectorScratch) (*CaseOutcome, error) {
	sc := r.sc
	vi, vj := r.vehicles[c.I], r.vehicles[c.J]
	senders := c.Senders()
	cloudI := r.cloudFor(c.I)
	cloudJ := r.cloudFor(c.J)

	out := &CaseOutcome{
		Scenario:     sc,
		Case:         c,
		DeltaD:       sc.DeltaD(c),
		CloudPointsI: cloudI.Len(),
		CloudPointsJ: cloudJ.Len(),
	}

	out.DetsI, out.StatsI = vi.detector.Detect(cloudI, nil, scratch)
	out.DetsJ, out.StatsJ = vj.detector.Detect(cloudJ, nil, scratch)

	// Exchange: every sender transmits its (optionally ROI-filtered)
	// cloud to the receiver i.
	filter := opts.Filter
	if sc.FrontFOV > 0 {
		fov := sc.FrontFOV
		inner := filter
		filter = func(cl *pointcloud.Cloud) *pointcloud.Cloud {
			cl = cl.CropFOV(0, fov/2)
			if inner != nil {
				cl = inner(cl)
			}
			return cl
		}
	}
	backend := opts.backend()
	var driftRNG *rand.Rand
	if opts.Drift != 0 && opts.Drift != fusion.DriftNone {
		// One stream, consumed in sender order, keeps drift deterministic
		// at any worker count and identical to the old pairwise draw.
		driftRNG = rand.New(rand.NewSource(opts.DriftSeed))
	}
	payloads := make([]fusion.Payload, 0, len(senders))
	for _, sIdx := range senders {
		vs := r.vehicles[sIdx]
		r.cloudFor(sIdx) // ensure the sender has sensed
		frame, err := vs.SensorFrame(filter)
		if err != nil {
			return nil, fmt.Errorf("case %s: %w", c.Name, err)
		}
		var p fusion.Payload
		if opts.BudgetBytes > 0 {
			sel, err := backend.Select(frame, opts.BudgetBytes, scratch)
			if err != nil {
				return nil, fmt.Errorf("case %s: %w", c.Name, err)
			}
			p = fusion.Payload{State: frame.State, Data: sel.Payload, Points: sel.Points}
		} else if p, err = backend.Encode(frame, scratch); err != nil {
			return nil, fmt.Errorf("case %s: %w", c.Name, err)
		}
		p.SenderID = vs.ID
		out.SenderPayloads = append(out.SenderPayloads, len(p.Data))
		out.SenderCloudPoints = append(out.SenderCloudPoints, p.Points)
		out.PayloadBytes += len(p.Data)
		if driftRNG != nil {
			p.State = fusion.ApplyDrift(p.State, opts.Drift, driftRNG)
		}
		payloads = append(payloads, p)
	}
	in, err := backend.Fuse(fusion.SensorFrame{State: vi.State(), Cloud: cloudI, Detector: vi.detector}, payloads)
	if err != nil {
		return nil, fmt.Errorf("case %s: %w", c.Name, err)
	}
	// The scenario knows the true inter-vehicle distance; the GPS-derived
	// estimate is overridden so the cooperative range gate matches the
	// union of both vehicles' detection areas exactly.
	in.MaxDist = out.DeltaD
	out.CloudPointsCoop = in.Cloud.Len()

	// Cooperative pass: same pipeline with backend-appropriate
	// preprocessing and the detection area widened to the union of both
	// vehicles' areas.
	out.DetsCoop, out.StatsCoop = in.Detect(vi.detector.Config(), scratch)

	// Score every column with the one truth matcher: each single shot
	// over its own detection area, the cooperative pass over the union
	// of every participant's area — receiver plus all K senders.
	aI := EvaluateDetectionsAssoc(sc, c.I, nil, out.DetsI)
	aJ := EvaluateDetectionsAssoc(sc, c.J, nil, out.DetsJ)
	aCoop := EvaluateDetectionsAssoc(sc, c.I, append([]int{c.I}, senders...), out.DetsCoop)
	out.FPI, out.FPJ, out.FPCoop = aI.Stats.FP, aJ.Stats.FP, aCoop.Stats.FP

	receiverPose := sc.Poses[c.I]
	for _, car := range sc.Scene.Cars() {
		coop := aCoop.Cell(car.ID, out.DetsCoop)
		if coop.Kind == eval.CellOutOfArea {
			continue // invisible to the whole case: no row in the figure
		}
		out.Rows = append(out.Rows, CarRow{
			CarID: car.ID,
			Band:  eval.BandFor(car.Box.Center.DistXY(receiverPose.T)),
			I:     aI.Cell(car.ID, out.DetsI),
			J:     aJ.Cell(car.ID, out.DetsJ),
			Coop:  coop,
		})
	}
	return out, nil
}

// RunAll evaluates every cooperative case of the scenario, fanning cases
// out over the runner's worker count (SetWorkers; default one per CPU).
// Pose clouds are pre-sensed in parallel first — each vehicle owns its
// seeded RNG — then every case computes independently and writes its
// outcome back by index, so the result slice is identical in order and
// values to a sequential loop over the cases. Each worker owns one
// detector scratch, so the fan-out's detector passes stop allocating
// once the buffers reach their high-water mark.
func (r *ScenarioRunner) RunAll(opts RunOptions) ([]*CaseOutcome, error) {
	r.PreSense()
	scratches := spod.NewScratches(parallel.WorkerCount(r.workers, len(r.sc.Cases)))
	return parallel.MapErrWorker(r.workers, len(r.sc.Cases), func(w, i int) (*CaseOutcome, error) {
		return r.runCase(r.sc.Cases[i], opts, scratches[w])
	})
}

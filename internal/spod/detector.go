package spod

import (
	"time"

	"cooper/internal/geom"
	"cooper/internal/pointcloud"
)

// Config parameterises the SPOD detector pipeline.
type Config struct {
	// Spherical controls the dense-representation preprocessing;
	// UseSpherical disables it when false. The spherical projection is
	// origin-dependent: correct for a single-sensor cloud in its own
	// frame, but it would resample a cooperative multi-origin merge at
	// the receiver's angular resolution and destroy the transmitter's
	// dense detail of distant regions — cooperative detection therefore
	// disables it and sets DedupVoxel instead.
	Spherical    SphericalConfig
	UseSpherical bool
	// DedupVoxel, when positive, voxel-downsamples the input at this
	// edge length: the origin-free deduplication for merged clouds.
	// 8 cm keeps every distinct surface while bounding density.
	DedupVoxel float64
	// VoxelSizeXY and VoxelSizeZ are the voxel feature encoder's cell
	// dimensions, metres.
	VoxelSizeXY, VoxelSizeZ float64
	// MiddleLayers is the sparse convolution stack.
	MiddleLayers []ConvWeights
	// ObjectnessThreshold gates BEV cells entering region proposal.
	ObjectnessThreshold float64
	// MinClusterPoints discards proposals with fewer supporting points.
	MinClusterPoints int
	// GroundTolerance is the height above the estimated ground below
	// which points are treated as road surface.
	GroundTolerance float64
	// MaxDetectionRange drops proposals farther than this from the
	// sensor, metres.
	MaxDetectionRange float64
	// VerticalFOVTop is the sensor's highest beam elevation (radians).
	// Clusters truncated at this ceiling are rejected as cars — a
	// passenger car roof always sits below the ceiling for Velodyne
	// geometry, so anything filling the FOV vertically is a taller
	// object. Set from the LiDAR model in use (HDL-64E: +2°, VLP-16: +15°).
	VerticalFOVTop float64
	// Score is the score head; ScoreThreshold is the acceptance cut —
	// the paper draws boxes for detections and "X" when the score is too
	// low.
	Score          ScoreWeights
	ScoreThreshold float64
	// NMSIoU is the BEV IoU above which overlapping detections merge.
	NMSIoU float64
}

// DefaultConfig returns the configuration used throughout the evaluation.
func DefaultConfig() Config {
	return Config{
		Spherical:           DefaultSphericalConfig(),
		UseSpherical:        true,
		VoxelSizeXY:         0.2,
		VoxelSizeZ:          0.25,
		MiddleLayers:        DefaultMiddleLayers(),
		ObjectnessThreshold: 0.05,
		MinClusterPoints:    10,
		GroundTolerance:     0.25,
		MaxDetectionRange:   70,
		VerticalFOVTop:      geom.Deg2Rad(15),
		Score:               DefaultScoreWeights(),
		ScoreThreshold:      0.50,
		NMSIoU:              0.1,
	}
}

// Stats reports per-stage instrumentation for one detection pass — the
// data behind the paper's Fig. 9 latency comparison.
type Stats struct {
	InputPoints     int
	ProjectedPoints int
	NonGroundPoints int
	VoxelCount      int
	ProposalCount   int
	CandidateCount  int

	PreprocessTime time.Duration
	VoxelTime      time.Duration
	ConvTime       time.Duration
	ProposalTime   time.Duration
	FitTime        time.Duration
	Total          time.Duration
}

// Detector runs the SPOD pipeline. It is stateless apart from its
// configuration and safe for concurrent use.
type Detector struct {
	cfg Config
}

// New returns a detector with the given configuration.
func New(cfg Config) *Detector { return &Detector{cfg: cfg} }

// NewDefault returns a detector with DefaultConfig.
func NewDefault() *Detector { return New(DefaultConfig()) }

// CoopConfig derives the cooperative-detection configuration from a
// single-shot configuration: the origin-dependent spherical preprocessing
// is replaced by an origin-free voxel dedup, and the receiver-centred
// range gate widens by the inter-vehicle distance so the union of both
// vehicles' detection areas stays covered.
func CoopConfig(base Config, interVehicleDist float64) Config {
	base.UseSpherical = false
	base.DedupVoxel = 0.10
	base.MaxDetectionRange += interVehicleDist
	return base
}

// Config returns the detector's configuration.
func (d *Detector) Config() Config { return d.cfg }

// Detect runs the pipeline on a sensor-frame cloud, on the caller's
// goroutine, and reports stage instrumentation. A nil scratch borrows
// working memory from a shared pool; a caller detecting in a loop holds
// one scratch per goroutine (the scratch must not be used concurrently)
// and the pass then allocates nothing in steady state outside the
// returned detections, which are fresh and safe to retain.
//
// A non-empty remotes makes the pass the receive half of feature-level
// fusion: stages 1–3 run on the receiver's own cloud, every remote site
// is re-binned into the receiver's voxel coordinates through its
// sender's alignment transform, and all tensors fuse by element-wise max
// — the F-Cooper fusion rule, chosen because max is insensitive to
// accumulation order, so the fused tensor is the same whichever order
// the remotes arrive in — before the proposal and fit stages. Remote
// sites also contribute pseudo-points (one per site, at the transformed
// voxel centre) so the anchor-fitting stage has geometry for cars only
// a sender saw.
func (d *Detector) Detect(cloud *pointcloud.Cloud, remotes []RemoteFeatures, s *DetectorScratch) ([]Detection, Stats) {
	if s == nil {
		s = scratchPool.Get().(*DetectorScratch)
		defer scratchPool.Put(s)
	}
	var st Stats
	st.InputPoints = cloud.Len()
	start := nowWall()
	tensor, grid, nonGround, groundZ := d.frontHalf(cloud, s, &st)
	var ps *pseudoSet
	if len(remotes) > 0 {
		t0 := nowWall()
		tensor, ps = fuseFeatureTensors(tensor, grid, groundZ, remotes, s)
		st.ConvTime += sinceWall(t0)
	}
	dets := d.backHalf(tensor, grid, nonGround, groundZ, ps, s, &st)
	st.Total = sinceWall(start)
	return dets, st
}

// frontHalf runs stages 1–3 of the pipeline — preprocessing, voxel
// feature encoding and the sparse convolutional middle layers — up to the
// post-convolution seam. The returned tensor, grid and cloud alias the
// scratch. This is the half a feature-level sender executes before
// exporting its planes (EncodeFeatureFrame).
func (d *Detector) frontHalf(cloud *pointcloud.Cloud, s *DetectorScratch, st *Stats) (*SparseTensor, *VoxelGrid, *pointcloud.Cloud, float64) {
	// Stage 1 — preprocessing: spherical projection to a dense, deduped
	// representation (SqueezeSeg-style) for single-origin clouds, or an
	// origin-free voxel dedup for merged ones; then ground removal.
	t0 := nowWall()
	work := cloud
	if d.cfg.UseSpherical {
		work = projectSpherical(cloud, d.cfg.Spherical, s).ToCloudInto(s.workCloud())
	} else if d.cfg.DedupVoxel > 0 {
		work = cloud.VoxelDownsampleInto(s.workCloud(), d.cfg.DedupVoxel, &s.dedup)
	}
	st.ProjectedPoints = work.Len()
	groundZ := work.EstimateGroundZ()
	nonGround := work.RemoveGroundPlaneInto(s.groundCloud(), groundZ, d.cfg.GroundTolerance)
	st.NonGroundPoints = nonGround.Len()
	st.PreprocessTime = sinceWall(t0)

	// Stage 2 — voxel feature encoding.
	t0 = nowWall()
	grid := voxelize(nonGround, d.cfg.VoxelSizeXY, d.cfg.VoxelSizeZ, groundZ, s)
	st.VoxelCount = grid.OccupiedVoxels()
	st.VoxelTime = sinceWall(t0)

	// Stage 3 — sparse convolutional middle layers.
	t0 = nowWall()
	tensor := runMiddleLayers(toSparseTensor(grid, s), d.cfg.MiddleLayers, s)
	st.ConvTime = sinceWall(t0)
	return tensor, grid, nonGround, groundZ
}

// backHalf runs stages 4–5 — BEV projection, region proposal, anchor
// fitting, scoring and NMS — on a (possibly fused) tensor. ps optionally
// supplies remote pseudo-points per BEV column: feature-level fusion has
// no transmitted raw points for regions only a sender saw, so each
// aligned remote site stands in as one point of cluster evidence,
// appended after the receiver's own points in the fixed column order.
func (d *Detector) backHalf(tensor *SparseTensor, grid *VoxelGrid, nonGround *pointcloud.Cloud, groundZ float64, ps *pseudoSet, s *DetectorScratch, st *Stats) []Detection {
	// Stage 4 — BEV projection and region proposal.
	t0 := nowWall()
	bev := projectBEVInto(tensor, grid, s)
	var psCols []colKey
	if ps != nil {
		psCols = ps.cols
	}
	props := proposalComponentsScratch(bev, d.cfg.ObjectnessThreshold, grid.Cols, psCols, s)
	st.ProposalCount = props.Len()
	st.ProposalTime = sinceWall(t0)

	// Stage 5 — anchor fitting, scoring, fragment merging, NMS.
	t0 = nowWall()
	pool := s.pool[:0]
	for ci := 0; ci < props.Len(); ci++ {
		idxs := s.ptBuf[:0]
		pseudo := 0
		for _, cell := range props.Component(ci) {
			l := props.links[cell]
			if l.grid >= 0 {
				idxs = append(idxs, grid.ColumnPoints(l.grid)...)
			}
			lo, hi := ps.column(l.pseudo)
			pseudo += int(hi - lo)
		}
		s.ptBuf = idxs
		if len(idxs)+pseudo < d.cfg.MinClusterPoints {
			continue
		}
		cp := gatherCluster(nonGround, idxs)
		if pseudo > 0 {
			// Append the component's pseudo-points in the same fixed cell
			// order the own-point gather used.
			for _, cell := range props.Component(ci) {
				lo, hi := ps.column(props.links[cell].pseudo)
				cp.xs = append(cp.xs, ps.xs[lo:hi]...)
				cp.ys = append(cp.ys, ps.ys[lo:hi]...)
				cp.zs = append(cp.zs, ps.zs[lo:hi]...)
			}
		}
		for _, sub := range splitCluster(cp) {
			best, ok := d.bestCandidate(sub, groundZ)
			if !ok {
				continue
			}
			st.CandidateCount++
			pool = append(pool, scored{cand: best.cand, points: sub.clusterPoints, comp: ci, score: best.score})
		}
	}

	// Fragment merge: two views of one car (e.g. a receiver seeing the
	// front face and a cooperating transmitter the rear) can land in
	// disjoint proposals. If the union of two nearby fragments refits a
	// car anchor with a strictly better score than either fragment, the
	// completed rectangle is the right hypothesis. Only incomplete
	// fragments (observed extents well short of a full car) are merge
	// seeds — complete rectangles gain nothing, and skipping them keeps
	// the pass cheap.
	incomplete := func(s scored) bool {
		return s.cand.stats.extAlongL < 3.4 || s.cand.stats.extAlongW < 1.2
	}
	nOrig := len(pool)
	for i := 0; i < nOrig; i++ {
		if !incomplete(pool[i]) {
			continue
		}
		for j := i + 1; j < nOrig; j++ {
			if pool[i].comp == pool[j].comp || !incomplete(pool[j]) {
				continue
			}
			if centroidDistBEV(pool[i].points, pool[j].points) > 4.3 {
				continue
			}
			union := concatClusters(pool[i].points, pool[j].points)
			best, ok := d.bestCandidate(clusterPart{clusterPoints: union}, groundZ)
			if !ok {
				continue
			}
			const margin = 0.02
			if best.score > pool[i].score+margin && best.score > pool[j].score+margin {
				pool = append(pool, scored{cand: best.cand, points: union, comp: -1, score: best.score})
			}
		}
	}
	s.pool = pool

	dets := s.dets[:0]
	for _, sc := range pool {
		if sc.score < d.cfg.ScoreThreshold {
			continue
		}
		dets = append(dets, Detection{
			Box:       sc.cand.box,
			Score:     sc.score,
			NumPoints: sc.cand.stats.n,
		})
	}
	kept := nmsInPlace(dets, d.cfg.NMSIoU)
	var out []Detection
	if len(kept) > 0 {
		out = make([]Detection, len(kept))
		copy(out, kept)
	}
	s.dets = dets[:0]
	st.FitTime = sinceWall(t0)
	return out
}

// scored is one fitted proposal awaiting the score cut and NMS.
type scored struct {
	cand   candidate
	points clusterPoints
	comp   int
	score  float64
}

type scoredCandidate struct {
	cand  candidate
	score float64
}

// bestCandidate fits anchors to a part and returns the highest-scoring
// plausible one. The yaw-free gate runs first: a part too tall, too low
// or truncated at the FOV ceiling fails it on every candidate, so it is
// rejected before the L-shape yaw search and the anchor fits.
func (d *Detector) bestCandidate(part clusterPart, groundZ float64) (scoredCandidate, bool) {
	best := scoredCandidate{score: -1}
	pr := part.profile()
	if !plausibleProfile(pr.zMax-groundZ, pr.topEl, d.cfg.VerticalFOVTop) {
		return best, false
	}
	for _, cand := range fitCandidates(part, pr, groundZ, geom.Vec2{}) {
		if cand.stats.rangeXY > d.cfg.MaxDetectionRange {
			continue
		}
		if !plausibleDims(cand.stats) {
			continue
		}
		if score := d.cfg.Score.Score(cand.stats); score > best.score {
			best = scoredCandidate{cand: cand, score: score}
		}
	}
	return best, best.score >= 0
}

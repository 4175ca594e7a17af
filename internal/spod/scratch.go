package spod

import (
	"sync"

	"cooper/internal/pointcloud"
)

// DetectorScratch owns every reusable buffer of one detection pass: the
// range image, the merged-cloud dedup table, the staging clouds, the
// voxel entry table, the grid / tensor / BEV storage and the proposal
// workspace. A scratch is NOT safe for concurrent use — it serves one
// detection at a time — but it may be reused freely across frames,
// detectors and configurations; buffers grow to the high-water mark of
// the frames they have seen and are then allocation-free.
//
// Callers that detect in a loop (the case runner, the episode engine, the
// hub's selftest rounds) hold one scratch per worker goroutine and pass
// it to Detect. A nil scratch draws from a package-level sync.Pool, so
// one-shot callers are allocation-lean too.
//
// Scratch contents never escape a detection: returned detections are
// freshly allocated copies, safe to retain.
type DetectorScratch struct {
	// Stage 1 — preprocessing.
	img       RangeImage
	dedup     pointcloud.VoxelScratch
	work      *pointcloud.Cloud // projected / deduped cloud
	nonGround *pointcloud.Cloud

	// Stage 2 — voxel feature encoding: the entry table (with the column
	// sort's second buffer) and the sort's digit counts. The feature fuse
	// reuses both for its remote sites once the grid is built.
	entries    []voxEntry
	radixCount [1 << radixBits]int32
	grid       VoxelGrid
	zvals      []int32
	zaccs      []voxAcc

	// Stage 3 — sparse convolution: the layout's rulebook, shared by
	// every layer, and the double-buffered feature planes with their
	// tensor headers.
	rules            rulebook
	featA, featB     []float64
	tensorA, tensorB SparseTensor

	// Stage 4 — BEV projection and region proposal: the map, the
	// thresholded columns and their row starts, the candidates, the DFS
	// state.
	bev            BEVMap
	bevObj, bevTop []float64
	propSrc        []colKey
	propRows       []int32
	cand           []colKey
	candLinks      []candLinks
	visited        []bool
	stack          []int32
	compCells      []int32
	compOff        []int32
	props          proposalSet

	// Stage 5 — cluster gathering, scoring, NMS.
	ptBuf []int32
	pool  []scored
	dets  []Detection

	// Feature-level fusion (Detect with remotes): the staged remote
	// sites (their sort records reuse entries), the fused tensor and its
	// storage, and the remote pseudo-point CSR with its header.
	fuseSites []fuseSite
	fused     SparseTensor
	ps        pseudoSet
	fuseCols  []colKey
	fuseOff   []int32
	fuseZs    []int32
	fuseFeats []float64
	psCols    []colKey
	psOff     []int32
	psXs      []float64
	psYs      []float64
	psZs      []float64
}

// NewScratch returns an empty scratch; buffers are allocated lazily as
// the first frames establish their sizes.
func NewScratch() *DetectorScratch { return &DetectorScratch{} }

// NewScratches returns n fresh scratches — one per worker slot of a
// parallel detection fan-out (size with parallel.WorkerCount).
func NewScratches(n int) []*DetectorScratch {
	out := make([]*DetectorScratch, n)
	for i := range out {
		out[i] = NewScratch()
	}
	return out
}

// workCloud returns the reusable staging cloud for the preprocessed
// representation, reset to empty.
func (s *DetectorScratch) workCloud() *pointcloud.Cloud {
	if s.work == nil {
		s.work = pointcloud.New(0)
	}
	s.work.Reset()
	return s.work
}

// groundCloud returns the reusable staging cloud for the ground-removed
// points, reset to empty.
func (s *DetectorScratch) groundCloud() *pointcloud.Cloud {
	if s.nonGround == nil {
		s.nonGround = pointcloud.New(0)
	}
	s.nonGround.Reset()
	return s.nonGround
}

// grow returns buf resized to n, reallocating only when capacity is
// short. Contents are unspecified; callers overwrite every slot.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// scratchPool backs Detect and EncodeFeatureFrame calls made without a
// scratch.
var scratchPool = sync.Pool{New: func() any { return NewScratch() }}

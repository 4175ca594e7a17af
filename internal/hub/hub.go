// Package hub implements Cooper's fleet hub: a long-lived server that
// accepts many concurrent vehicle sessions over the network transport,
// maintains a latest-frame cache per vehicle, and answers fusion requests
// by assembling K-sender broadcast rounds under the DSRC scheduler's
// budget. When a requester advertises a bandwidth cap, each selected
// frame is refitted with the ROI payload ladder (full frame → 120° front
// FOV → stride-downsampled → sparse feature frame) so the round's
// payloads honour the cap — the serving-layer composition of the paper's
// §II-C exchange protocol and §IV-G data-volume analysis.
//
// Frames publish in either fusion encoding: raw quantized clouds or CPF3
// feature frames (the F-Cooper level). Requesters choose per round — a
// feature-level request serves every sender as a budget-trimmed feature
// frame, deriving it once from raw publishes; a raw request falls back to
// a publisher's feature frame only when that is all the publisher sent or
// the budget is below the cheapest point rung.
//
// The hub speaks protocol v2 (network.MsgHello and friends) and its v3
// feature/delta extension. The paper's 1:1 exchange is the smallest hub
// session: one vehicle publishes, the other requests a round of K = 1.
package hub

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"cooper/internal/fusion"
	"cooper/internal/geom"
	"cooper/internal/network"
	"cooper/internal/pointcloud"
	"cooper/internal/roi"
	"cooper/internal/spod"
	"cooper/internal/store"
	"cooper/internal/telemetry"
)

// Config parameterises a hub.
type Config struct {
	// Scheduler models the shared broadcast channel fusion rounds are
	// planned on. The zero value is replaced by network.DefaultScheduler.
	Scheduler network.Scheduler
	// MaxSenders caps the senders per fusion round when a request does
	// not name its own cap (default 8).
	MaxSenders int
	// Loss injects seeded publish loss: frames the model drops never
	// reach the cache (the sender's previous frame keeps serving), and a
	// dropped CPD1 keyframe surfaces on the next delta as the in-band
	// keyframe error the client recovers from. The zero value delivers
	// everything.
	Loss network.LossModel
	// Logf, when set, receives one line per session event (connects,
	// publishes, rounds). The hub never logs through any other path, so
	// servers stay silent by default and tests stay quiet.
	Logf func(format string, args ...any)
	// Metrics, when set, receives the hub's telemetry: publish/round
	// counters, cache churn, loss drops, keyframe misses and the round
	// latency histogram. Every value honours the telemetry package's
	// sim-time-and-bytes determinism contract. Nil disables metrics at
	// the cost of one pointer test per event.
	Metrics *telemetry.Registry
	// HTTPAddr, when non-empty, is the address StartHTTP serves the
	// stats API on (see http.go): /vehicles, /rounds, /metrics,
	// /metrics.json, /debug/pprof and /episodes.
	HTTPAddr string
	// Episodes, when set, is the episode-log directory the HTTP
	// surface's /episodes endpoints list and replay from.
	Episodes *store.Dir
}

// roundLatencyBuckets spans the DSRC schedule model's plausible round
// completions, in microseconds: 1 ms to ~5 s.
var roundLatencyBuckets = []int64{1000, 5000, 10000, 25000, 50000, 100000, 250000, 500000, 1000000, 5000000}

// hubMetrics is the hub's resolved metric handles. All handles are nil
// (no-ops) when Config.Metrics is nil.
type hubMetrics struct {
	publishes      *telemetry.Counter
	publishBytes   *telemetry.Counter
	publishDrops   *telemetry.Counter
	publishStale   *telemetry.Counter
	cacheEvictions *telemetry.Counter
	keyframeMisses *telemetry.Counter
	vehicles       *telemetry.Gauge
	rounds         *telemetry.Counter
	roundFrames    *telemetry.Counter
	roundBytes     *telemetry.Counter
	roundStale     *telemetry.Counter
	roundLatency   *telemetry.Histogram
}

func newHubMetrics(r *telemetry.Registry) hubMetrics {
	return hubMetrics{
		publishes:      r.Counter("hub_publishes_total"),
		publishBytes:   r.Counter("hub_publish_bytes_total"),
		publishDrops:   r.Counter("hub_publish_drops_total"),
		publishStale:   r.Counter("hub_publish_stale_total"),
		cacheEvictions: r.Counter("hub_cache_evictions_total"),
		keyframeMisses: r.Counter("hub_keyframe_misses_total"),
		vehicles:       r.Gauge("hub_vehicles_cached"),
		rounds:         r.Counter("hub_rounds_total"),
		roundFrames:    r.Counter("hub_round_frames_total"),
		roundBytes:     r.Counter("hub_round_payload_bytes_total"),
		roundStale:     r.Counter("hub_round_stale_senders_total"),
		roundLatency:   r.Histogram("hub_round_latency_us", roundLatencyBuckets...),
	}
}

// DefaultMaxSenders bounds fusion rounds for requests that do not name a
// cap: eight senders saturate the default DSRC channel with typical
// quantized frames, matching the fleet sweep's largest configuration.
const DefaultMaxSenders = 8

// cachedFrame is one vehicle's latest published frame, decoded once at
// publish time so budget refits never re-decode on the request path. A
// raw publish fills cloud; a feature publish fills feat and leaves cloud
// nil. Whichever form is missing is derived lazily (and at most once) on
// the request paths that need it, and so are the ROI ladder's
// budget-independent rungs: every capped request for the frame, from any
// requester at any budget, shares them. Served payloads alias the cache,
// so nothing downstream may mutate them.
type cachedFrame struct {
	state   fusion.VehicleState
	payload []byte
	cloud   *pointcloud.Cloud
	feat    *spod.FeatureFrame
	seq     uint64
	ladder  roi.Ladder

	featOnce    sync.Once
	featDerived *spod.FeatureFrame
	featPayOnce sync.Once
	featPayload []byte
}

// features returns the frame's sparse feature planes, deriving them from
// the cached cloud on first use for raw publishes. Returns nil only for
// a frame with neither form (which Publish never caches).
func (f *cachedFrame) features() *spod.FeatureFrame {
	if f.feat != nil {
		return f.feat
	}
	if f.cloud == nil {
		return nil
	}
	f.featOnce.Do(func() {
		f.featDerived = spod.NewDefault().EncodeFeatureFrame(f.cloud, nil).
			Prune(fusion.DefaultFeatureBackend().TransmitFloor)
	})
	return f.featDerived
}

// featureWire returns the frame's uncapped CPF3 wire bytes, encoding at
// most once per cached frame.
func (f *cachedFrame) featureWire() []byte {
	if f.cloud == nil {
		return f.payload // published as CPF3 already
	}
	f.featPayOnce.Do(func() { f.featPayload = f.features().Encode() })
	return f.featPayload
}

// selection fits the frame under a per-sender byte share (0 = uncapped)
// for a raw or feature-level round — the hub's one selection path, which
// round assembly and the selftest's rung accounting share.
func (f *cachedFrame) selection(perSender int, feature bool) (roi.Selection, error) {
	switch {
	case perSender == 0 && !feature && f.cloud != nil:
		return roi.Selection{Payload: f.payload, Category: roi.CategoryFullFrame, Points: f.cloud.Len()}, nil
	case perSender == 0:
		// Feature requester, or a feature-only publish a raw requester
		// still fuses: serve the uncapped feature frame.
		return roi.Selection{Payload: f.featureWire(), Category: roi.CategoryFeature, Points: f.features().Sites()}, nil
	case feature:
		return roi.SelectFeature(f.ladder.Source, perSender)
	default:
		return f.ladder.Select(perSender)
	}
}

// deltaState is one publisher's CPD1 decoder — the per-vehicle keyframe
// state behind the cachedFrame cache. It lives outside cachedFrame
// because cached frames are replaced wholesale on every publish while
// keyframe state persists across the stream; its own lock serialises the
// (stateful) delta application per sender without holding the cache lock.
type deltaState struct {
	mu  sync.Mutex
	dec pointcloud.DeltaDecoder
}

// Hub is the fleet server. All methods are safe for concurrent use; the
// session loops in session.go are thin wrappers over Publish and
// AssembleRound, so in-process callers (tests, benchmarks, the selftest
// harness) exercise the same logic as TCP clients.
type Hub struct {
	cfg Config

	mu     sync.RWMutex
	frames map[string]*cachedFrame

	deltaMu sync.Mutex
	deltas  map[string]*deltaState

	sessMu   sync.Mutex
	sessions map[*network.Transport]struct{}
	listener *network.Listener
	closed   bool
	wg       sync.WaitGroup
	rounds   atomic.Uint64

	met hubMetrics

	ringMu sync.Mutex
	ring   []RoundInfo

	httpMu  sync.Mutex
	httpSrv *httpServer
}

// ringCap bounds the in-memory recent-round buffer /rounds serves.
const ringCap = 64

// RoundInfo is the retained summary of one assembled round, what the
// HTTP /rounds endpoint serves. All fields derive from sim-time and
// byte counts; under concurrent requesters only the ring's order varies
// with scheduling, never any entry's contents.
type RoundInfo struct {
	Seq       uint64   `json:"seq"`
	Requester string   `json:"requester"`
	Frames    int      `json:"frames"`
	Bytes     int64    `json:"bytes"`
	LatencyUS int64    `json:"latency_us"`
	Stale     []string `json:"stale,omitempty"`
	Feature   bool     `json:"feature,omitempty"`
}

// New creates a hub.
func New(cfg Config) *Hub {
	if cfg.Scheduler.RateHz == 0 {
		cfg.Scheduler = network.DefaultScheduler()
	}
	if cfg.MaxSenders <= 0 {
		cfg.MaxSenders = DefaultMaxSenders
	}
	return &Hub{
		cfg:      cfg,
		frames:   make(map[string]*cachedFrame),
		deltas:   make(map[string]*deltaState),
		sessions: make(map[*network.Transport]struct{}),
		met:      newHubMetrics(cfg.Metrics),
	}
}

func (h *Hub) logf(format string, args ...any) {
	if h.cfg.Logf != nil {
		h.cfg.Logf(format, args...)
	}
}

// Publish stores a vehicle's frame as its latest, replacing any cached
// frame with a lower or equal sequence number. The payload must decode —
// as a point cloud, as a CPF3 feature frame, or as a CPD1 delta-stream
// frame against the sender's keyframe state — so the request path can
// rely on every cached frame being fusable. A CPD1 publish is
// reconstructed and re-encoded to the canonical CPQ1 form before caching:
// fusion rounds always serve self-contained full frames, byte-identical
// to what a v2 publish of the same cloud would have cached. Returns the
// number of vehicles cached after the publish.
func (h *Hub) Publish(sender string, state fusion.VehicleState, payload []byte, seq uint64) (int, error) {
	if sender == "" {
		return 0, fmt.Errorf("hub: publish with empty sender")
	}
	if h.cfg.Loss.DropPublish(sender, seq) {
		// Lost in transit: the cache keeps whatever it had. The drop
		// happens before any decoding, so a lost CPD1 keyframe never
		// advances the sender's delta state — the next delta against it
		// fails with the keyframe error and the client re-keys.
		h.met.publishDrops.Inc()
		h.logf("frame from %s (seq %d) lost in transit", sender, seq)
		h.mu.RLock()
		defer h.mu.RUnlock()
		return len(h.frames), nil
	}
	frame := &cachedFrame{state: state, payload: payload, seq: seq}
	switch {
	case spod.IsFeaturePayload(payload):
		feat, err := spod.DecodeFeatureFrame(payload)
		if err != nil {
			return 0, fmt.Errorf("hub: feature frame from %s: %w", sender, err)
		}
		frame.feat = feat
	case pointcloud.IsDeltaFrame(payload):
		cloud, canonical, err := h.applyDelta(sender, payload)
		if err != nil {
			return 0, fmt.Errorf("hub: delta frame from %s: %w", sender, err)
		}
		frame.cloud = cloud
		frame.payload = canonical
	default:
		cloud, err := pointcloud.Decode(payload)
		if err != nil {
			return 0, fmt.Errorf("hub: frame from %s: %w", sender, err)
		}
		frame.cloud = cloud
	}
	frame.ladder.Source = roi.Source{
		Cloud: frame.cloud, Features: frame.feat, Derive: frame.features, Encoded: frame.payload,
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if prev, ok := h.frames[sender]; ok && prev.seq > seq {
		h.met.publishStale.Inc()
		return len(h.frames), nil // stale frame raced a newer one: keep latest
	}
	if _, ok := h.frames[sender]; ok {
		// Cache churn: the sender's previous frame is evicted by this one.
		h.met.cacheEvictions.Inc()
	}
	h.frames[sender] = frame
	h.met.publishes.Inc()
	h.met.publishBytes.Add(int64(len(payload)))
	h.met.vehicles.Set(int64(len(h.frames)))
	return len(h.frames), nil
}

// applyDelta runs one CPD1 frame through the sender's delta decoder and
// returns the reconstructed cloud plus its canonical CPQ1 re-encoding.
// Decoder state advances only on success; a missing or stale keyframe
// surfaces as an error the session answers in-band, prompting the
// publisher to re-send a keyframe.
func (h *Hub) applyDelta(sender string, payload []byte) (*pointcloud.Cloud, []byte, error) {
	h.deltaMu.Lock()
	ds, ok := h.deltas[sender]
	if !ok {
		ds = &deltaState{}
		h.deltas[sender] = ds
	}
	h.deltaMu.Unlock()

	ds.mu.Lock()
	defer ds.mu.Unlock()
	cloud := &pointcloud.Cloud{}
	if err := ds.dec.DecodeInto(payload, cloud); err != nil {
		h.met.keyframeMisses.Inc()
		return nil, nil, err
	}
	// Quantized encoding is idempotent, so re-encoding the reconstruction
	// reproduces exactly the bytes the publisher's full frame would have
	// carried.
	canonical, err := pointcloud.EncodeQuantized(cloud)
	if err != nil {
		return nil, nil, err
	}
	return cloud, canonical, nil
}

// Cached returns the number of vehicles with a cached frame.
func (h *Hub) Cached() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.frames)
}

// RoundFrame is one sender's contribution to an assembled fusion round.
type RoundFrame struct {
	// Sender and State identify and localise the contributing vehicle.
	Sender string
	State  fusion.VehicleState
	// Payload is the wire encoding actually scheduled — refitted under
	// the requester's budget when one was advertised.
	Payload []byte
	// Category, Points and Downsampled describe the payload-selection
	// rung that fit (roi.SelectPayload).
	Category    roi.Category
	Points      int
	Downsampled bool
	// Stale marks a frame older than the requester's freshness floor: the
	// sender's newer publish was lost, so this round serves (and flags)
	// its last delivered frame.
	Stale bool
}

// Round is an assembled fusion round: the selected sender frames in
// broadcast-slot order plus the DSRC schedule that would deliver them.
type Round struct {
	// Seq is the hub-wide round number, assigned at assembly.
	Seq    uint64
	Frames []RoundFrame
	// Plan schedules the frames on the hub's channel; Plan.Completion is
	// the modelled round latency the requester would observe.
	Plan network.Plan
	// Stale names the served senders (slot order) whose cached frame
	// predates the requester's freshness floor — publishes the channel
	// dropped this round, answered with the sender's newest delivered
	// frame instead. The requester fuses them knowingly: the marker is
	// the in-band signal that the round is partial, never an error.
	Stale []string
}

// Partial reports whether the round served any stale sender.
func (r Round) Partial() bool { return len(r.Stale) > 0 }

// AssembleRound builds a fusion round for a requester at the given
// position: the k nearest cached senders (excluding the requester
// itself), each payload fitted under the advertised bandwidth cap.
// k <= 0 selects the hub's MaxSenders default; budgetBps is the
// requester's sustained-rate cap in bits per second (0 = uncapped), split
// evenly across the selected senders at the scheduler's exchange rate.
// Assembly is deterministic: cache contents, requester position, k and
// budget fully determine the round, including slot order (nearest first,
// sender ID breaking distance ties).
func (h *Hub) AssembleRound(requester string, at geom.Vec3, k int, budgetBps uint64) (Round, error) {
	return h.assembleRound(requester, at, k, budgetBps, 0, false)
}

// AssembleRoundSince is AssembleRound with a freshness floor: senders
// whose cached frame's sequence number is below floor are still served —
// their newest delivered frame beats nothing at all — but named in the
// round's Stale list so the requester fuses the partial round knowingly.
// A floor of zero (what pre-floor clients send) flags nothing.
func (h *Hub) AssembleRoundSince(requester string, at geom.Vec3, k int, budgetBps uint64, floor uint64) (Round, error) {
	return h.assembleRound(requester, at, k, budgetBps, floor, false)
}

// AssembleFeatureRound is AssembleRound for a feature-level requester:
// every selected frame is served as a CPF3 feature payload — derived once
// from raw publishes, trimmed by column salience under the budget — so
// the round fuses past the convolution seam regardless of how each sender
// published.
func (h *Hub) AssembleFeatureRound(requester string, at geom.Vec3, k int, budgetBps uint64) (Round, error) {
	return h.assembleRound(requester, at, k, budgetBps, 0, true)
}

func (h *Hub) assembleRound(requester string, at geom.Vec3, k int, budgetBps uint64, floor uint64, feature bool) (Round, error) {
	if k <= 0 {
		k = h.cfg.MaxSenders
	}

	type candidate struct {
		id    string
		dist  float64
		frame *cachedFrame
	}
	h.mu.RLock()
	cands := make([]candidate, 0, len(h.frames))
	for id, f := range h.frames {
		if id == requester {
			continue
		}
		//cooper:maporder candidates are sorted (distance, then ID tie-break) before any output-visible use
		cands = append(cands, candidate{id: id, dist: f.state.GPS.DistXY(at), frame: f})
	}
	h.mu.RUnlock()

	sort.Slice(cands, func(i, j int) bool {
		if cands[i].dist != cands[j].dist {
			return cands[i].dist < cands[j].dist
		}
		return cands[i].id < cands[j].id
	})
	if len(cands) > k {
		cands = cands[:k]
	}

	perSender := h.perSender(budgetBps, len(cands))
	r := Round{Frames: make([]RoundFrame, 0, len(cands))}
	sizes := make([]int, 0, len(cands))
	for _, c := range cands {
		rf := RoundFrame{Sender: c.id, State: c.frame.state}
		if floor > 0 && c.frame.seq < floor {
			rf.Stale = true
			r.Stale = append(r.Stale, c.id)
		}
		sel, err := c.frame.selection(perSender, feature)
		if err != nil {
			return Round{}, fmt.Errorf("hub: fitting %s's frame: %w", c.id, err)
		}
		rf.Payload = sel.Payload
		rf.Category = sel.Category
		rf.Points = sel.Points
		rf.Downsampled = sel.Downsampled
		r.Frames = append(r.Frames, rf)
		sizes = append(sizes, len(rf.Payload))
	}
	r.Plan = h.cfg.Scheduler.Plan(sizes)
	r.Seq = h.rounds.Add(1)
	h.observeRound(requester, r, feature)
	return r, nil
}

// perSender is the byte share of a bandwidth cap each of a round's n
// senders gets, 0 when uncapped. The cap is a sustained rate; at the
// scheduler's exchange rate it buys budget/8/rate bytes per round, shared
// evenly by the round's frames.
func (h *Hub) perSender(budgetBps uint64, n int) int {
	if budgetBps == 0 || n == 0 {
		return 0
	}
	roundBytes := float64(budgetBps) / 8 / h.cfg.Scheduler.RateHz
	return max(int(roundBytes)/n, 1) // a cap is a cap: force the smallest payload
}

// observeRound records an assembled round's telemetry and pushes its
// summary into the recent-round ring. Counter and histogram updates are
// order-independent, so concurrent requesters leave the registry
// deterministic; only the ring's order tracks scheduling.
func (h *Hub) observeRound(requester string, r Round, feature bool) {
	totalBytes := int64(r.Plan.TotalBytes())
	h.met.rounds.Inc()
	h.met.roundFrames.Add(int64(len(r.Frames)))
	h.met.roundBytes.Add(totalBytes)
	h.met.roundStale.Add(int64(len(r.Stale)))
	h.met.roundLatency.Observe(r.Plan.Completion().Microseconds())
	if h.cfg.Metrics != nil {
		// Payload bytes by ladder rung: which selection categories the
		// budget actually bought (§IV-G data-volume accounting, live).
		for _, f := range r.Frames {
			h.cfg.Metrics.Counter(fmt.Sprintf("hub_round_payload_bytes_cat%d_total", f.Category)).
				Add(int64(len(f.Payload)))
		}
	}

	info := RoundInfo{
		Seq:       r.Seq,
		Requester: requester,
		Frames:    len(r.Frames),
		Bytes:     totalBytes,
		LatencyUS: r.Plan.Completion().Microseconds(),
		Feature:   feature,
	}
	info.Stale = append(info.Stale, r.Stale...)
	h.ringMu.Lock()
	h.ring = append(h.ring, info)
	if len(h.ring) > ringCap {
		h.ring = h.ring[len(h.ring)-ringCap:]
	}
	h.ringMu.Unlock()
}

// RecentRounds returns the retained round summaries, oldest first.
func (h *Hub) RecentRounds() []RoundInfo {
	h.ringMu.Lock()
	defer h.ringMu.Unlock()
	out := make([]RoundInfo, len(h.ring))
	copy(out, h.ring)
	return out
}

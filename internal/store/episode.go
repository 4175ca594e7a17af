package store

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"sync"

	"cooper/internal/fusion"
	"cooper/internal/geom"
	"cooper/internal/pointcloud"
	"cooper/internal/spod"
	"cooper/internal/track"
)

// Typed record payloads. Every field is either a byte count, an index,
// a string label, or an exact float64 bit pattern — the encodings are
// bijective, so identical runs produce identical logs and a decoded
// record re-encodes to the same bytes.

// Header opens every episode log: what ran and under which knobs. The
// replayer uses Backend/UseICP to rebuild the fusion strategy; the rest
// is provenance for humans and the HTTP listing.
type Header struct {
	// Label names the episode (CLI-chosen id or case label).
	Label string
	// Scenario is the scene/case descriptor the run used.
	Scenario string
	// Seed is the run's deterministic seed.
	Seed int64
	// Frames and Hz describe the capture timeline.
	Frames int
	Hz     float64
	// Backend is the fusion backend name ("raw", "feature").
	Backend string
	// UseICP records whether raw fusion refined alignment with ICP.
	UseICP bool
	// Wire names the transport encoding the run published with.
	Wire string
}

// Frame is one published sender frame: the wire payload exactly as it
// crossed the channel, plus the pose state that rode alongside it.
type Frame struct {
	Frame   int
	Sender  string
	Seq     uint64
	State   fusion.VehicleState
	Payload []byte
}

// RoundPayload is one sender contribution inside an assembled round.
type RoundPayload struct {
	Sender string
	State  fusion.VehicleState
	Data   []byte
}

// Round is everything a receiver's fusion step consumed for one frame:
// its own lossless cloud and pose, the payloads it collected, and the
// detector-configuration scalars needed to rebuild the exact detector.
// Replaying a Round through the live fusion path must reproduce the
// Detections record that follows it byte for byte.
type Round struct {
	Frame    int
	Receiver string
	State    fusion.VehicleState
	// Own is the receiver's own sensor-frame cloud, stored lossless
	// (float64 bit patterns) because the fused detections depend on its
	// exact values.
	Own *pointcloud.Cloud
	// Warmup marks a single-shot (pre-cooperation) detection round.
	Warmup bool
	// OverrideMaxDist records that the producer overrode the fused
	// input's MaxDist (the episode engine knows true inter-vehicle
	// distance) with the given value before detecting.
	OverrideMaxDist bool
	MaxDist         float64
	// FOVTop and MaxRange rebuild the receiver's detector config:
	// spod.DefaultConfig() + VerticalFOVTop + MaxDetectionRange is how
	// every in-tree producer constructs it.
	FOVTop   float64
	MaxRange float64
	// LatencyUS/StalenessUS/PayloadBytes/Lost are the round's transport
	// accounting (microseconds of sim-time and exact byte counts).
	LatencyUS    int64
	StalenessUS  int64
	PayloadBytes int64
	Lost         int
	Payloads     []RoundPayload
}

// Detections is the fused detector output for one receiver round.
type Detections struct {
	Frame    int
	Receiver string
	Dets     []spod.Detection
}

// TrackState is one track's externally visible state.
type TrackState struct {
	ID           int
	Box          geom.Box
	VelX, VelY   float64
	Hits, Misses int
}

// TrackStates captures a tracker's live tracks as episode records.
func TrackStates(tracks []*track.Track) []TrackState {
	ts := make([]TrackState, len(tracks))
	for j, t := range tracks {
		ts[j] = TrackState{ID: t.ID, Box: t.Box, VelX: t.Vel.X, VelY: t.Vel.Y, Hits: t.Hits, Misses: t.Misses}
	}
	return ts
}

// Tracks is one receiver's tracker state after a frame.
type Tracks struct {
	Frame    int
	Receiver string
	Tracks   []TrackState
}

// End closes a complete log with totals; a log without one was
// truncated by a crash (still readable up to the cut).
type End struct {
	Frames int
	Rounds int
}

// --- little-endian encode helpers ---

func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
func appendI64(b []byte, v int64) []byte  { return appendU64(b, uint64(v)) }
func appendF64(b []byte, v float64) []byte {
	return appendU64(b, math.Float64bits(v))
}
func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}
func appendStr(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}
func appendBytes(b, data []byte) []byte {
	b = appendU32(b, uint32(len(data)))
	return append(b, data...)
}
func appendState(b []byte, s fusion.VehicleState) []byte {
	for _, f := range []float64{s.GPS.X, s.GPS.Y, s.GPS.Z, s.Yaw, s.Pitch, s.Roll, s.MountHeight} {
		b = appendF64(b, f)
	}
	return b
}
func appendBox(b []byte, box geom.Box) []byte {
	for _, f := range []float64{box.Center.X, box.Center.Y, box.Center.Z, box.Length, box.Width, box.Height, box.Yaw} {
		b = appendF64(b, f)
	}
	return b
}
func appendCloud(b []byte, c *pointcloud.Cloud) []byte {
	if c == nil {
		return appendU32(b, 0)
	}
	b = appendU32(b, uint32(c.Len()))
	for i := 0; i < c.Len(); i++ {
		p := c.At(i)
		b = appendF64(b, p.X)
		b = appendF64(b, p.Y)
		b = appendF64(b, p.Z)
		b = appendF64(b, p.Reflectance)
	}
	return b
}

// cursor is a sticky-error decoder: the first short read poisons it and
// every later accessor returns zero values, so typed decoders read
// straight through without per-field error plumbing and never panic.
type cursor struct {
	data []byte
	err  error
}

func (c *cursor) fail(what string) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: %s", ErrTruncated, what)
	}
}
func (c *cursor) take(n int, what string) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || len(c.data) < n {
		c.fail(what)
		return nil
	}
	out := c.data[:n]
	c.data = c.data[n:]
	return out
}
func (c *cursor) u8(what string) byte {
	b := c.take(1, what)
	if b == nil {
		return 0
	}
	return b[0]
}
func (c *cursor) u32(what string) uint32 {
	b := c.take(4, what)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}
func (c *cursor) u64(what string) uint64 {
	b := c.take(8, what)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}
func (c *cursor) i64(what string) int64   { return int64(c.u64(what)) }
func (c *cursor) f64(what string) float64 { return math.Float64frombits(c.u64(what)) }
func (c *cursor) boolean(what string) bool {
	return c.u8(what) != 0
}
func (c *cursor) str(what string) string {
	n := c.u32(what)
	return string(c.take(int(n), what))
}
func (c *cursor) bytes(what string) []byte {
	n := c.u32(what)
	b := c.take(int(n), what)
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}
func (c *cursor) state(what string) fusion.VehicleState {
	var s fusion.VehicleState
	s.GPS.X = c.f64(what)
	s.GPS.Y = c.f64(what)
	s.GPS.Z = c.f64(what)
	s.Yaw = c.f64(what)
	s.Pitch = c.f64(what)
	s.Roll = c.f64(what)
	s.MountHeight = c.f64(what)
	return s
}
func (c *cursor) box(what string) geom.Box {
	var b geom.Box
	b.Center.X = c.f64(what)
	b.Center.Y = c.f64(what)
	b.Center.Z = c.f64(what)
	b.Length = c.f64(what)
	b.Width = c.f64(what)
	b.Height = c.f64(what)
	b.Yaw = c.f64(what)
	return b
}
func (c *cursor) cloud(what string) *pointcloud.Cloud {
	n := c.u32(what)
	if c.err != nil || uint64(len(c.data)) < uint64(n)*32 {
		c.fail(what)
		return nil
	}
	cl := pointcloud.New(int(n))
	for i := 0; i < int(n); i++ {
		cl.AppendXYZR(c.f64(what), c.f64(what), c.f64(what), c.f64(what))
	}
	return cl
}

// --- typed record codecs ---

// EncodeHeader renders a Header record payload.
func EncodeHeader(h Header) []byte {
	b := appendStr(nil, h.Label)
	b = appendStr(b, h.Scenario)
	b = appendI64(b, h.Seed)
	b = appendU32(b, uint32(h.Frames))
	b = appendF64(b, h.Hz)
	b = appendStr(b, h.Backend)
	b = appendBool(b, h.UseICP)
	b = appendStr(b, h.Wire)
	return b
}

// DecodeHeader parses a Header record payload.
func DecodeHeader(data []byte) (Header, error) {
	c := &cursor{data: data}
	h := Header{
		Label:    c.str("header label"),
		Scenario: c.str("header scenario"),
		Seed:     c.i64("header seed"),
		Frames:   int(c.u32("header frames")),
		Hz:       c.f64("header hz"),
		Backend:  c.str("header backend"),
		UseICP:   c.boolean("header icp"),
		Wire:     c.str("header wire"),
	}
	return h, c.err
}

// EncodeFrame renders a Frame record payload.
func EncodeFrame(f Frame) []byte {
	b := appendU32(nil, uint32(f.Frame))
	b = appendStr(b, f.Sender)
	b = appendU64(b, f.Seq)
	b = appendState(b, f.State)
	b = appendBytes(b, f.Payload)
	return b
}

// DecodeFrame parses a Frame record payload.
func DecodeFrame(data []byte) (Frame, error) {
	c := &cursor{data: data}
	f := Frame{
		Frame:   int(c.u32("frame index")),
		Sender:  c.str("frame sender"),
		Seq:     c.u64("frame seq"),
		State:   c.state("frame state"),
		Payload: c.bytes("frame payload"),
	}
	return f, c.err
}

// EncodeRound renders a Round record payload.
func EncodeRound(r Round) []byte {
	b := appendU32(nil, uint32(r.Frame))
	b = appendStr(b, r.Receiver)
	b = appendState(b, r.State)
	b = appendCloud(b, r.Own)
	b = appendBool(b, r.Warmup)
	b = appendBool(b, r.OverrideMaxDist)
	b = appendF64(b, r.MaxDist)
	b = appendF64(b, r.FOVTop)
	b = appendF64(b, r.MaxRange)
	b = appendI64(b, r.LatencyUS)
	b = appendI64(b, r.StalenessUS)
	b = appendI64(b, r.PayloadBytes)
	b = appendU32(b, uint32(r.Lost))
	b = appendU32(b, uint32(len(r.Payloads)))
	for _, p := range r.Payloads {
		b = appendStr(b, p.Sender)
		b = appendState(b, p.State)
		b = appendBytes(b, p.Data)
	}
	return b
}

// DecodeRound parses a Round record payload.
func DecodeRound(data []byte) (Round, error) {
	c := &cursor{data: data}
	r := Round{
		Frame:           int(c.u32("round frame")),
		Receiver:        c.str("round receiver"),
		State:           c.state("round state"),
		Own:             c.cloud("round cloud"),
		Warmup:          c.boolean("round warmup"),
		OverrideMaxDist: c.boolean("round override"),
		MaxDist:         c.f64("round maxdist"),
		FOVTop:          c.f64("round fovtop"),
		MaxRange:        c.f64("round maxrange"),
		LatencyUS:       c.i64("round latency"),
		StalenessUS:     c.i64("round staleness"),
		PayloadBytes:    c.i64("round bytes"),
		Lost:            int(c.u32("round lost")),
	}
	n := c.u32("round payload count")
	if c.err != nil {
		return r, c.err
	}
	if uint64(n) > uint64(len(c.data)) {
		c.fail("round payload count")
		return r, c.err
	}
	r.Payloads = make([]RoundPayload, 0, n)
	for i := uint32(0); i < n && c.err == nil; i++ {
		r.Payloads = append(r.Payloads, RoundPayload{
			Sender: c.str("round payload sender"),
			State:  c.state("round payload state"),
			Data:   c.bytes("round payload data"),
		})
	}
	return r, c.err
}

// EncodeDetections renders a Detections record payload. It is the
// byte-comparison basis for replay verification: two detection sets are
// identical iff their encodings are.
func EncodeDetections(d Detections) []byte {
	b := appendU32(nil, uint32(d.Frame))
	b = appendStr(b, d.Receiver)
	b = appendU32(b, uint32(len(d.Dets)))
	for _, det := range d.Dets {
		b = appendBox(b, det.Box)
		b = appendF64(b, det.Score)
		b = appendI64(b, int64(det.NumPoints))
	}
	return b
}

// DecodeDetections parses a Detections record payload.
func DecodeDetections(data []byte) (Detections, error) {
	c := &cursor{data: data}
	d := Detections{
		Frame:    int(c.u32("detections frame")),
		Receiver: c.str("detections receiver"),
	}
	n := c.u32("detections count")
	if c.err == nil && uint64(n)*72 > uint64(len(c.data)) {
		c.fail("detections count")
	}
	if c.err != nil {
		return d, c.err
	}
	d.Dets = make([]spod.Detection, 0, n)
	for i := uint32(0); i < n && c.err == nil; i++ {
		d.Dets = append(d.Dets, spod.Detection{
			Box:       c.box("detection box"),
			Score:     c.f64("detection score"),
			NumPoints: int(c.i64("detection points")),
		})
	}
	return d, c.err
}

// EncodeTracks renders a Tracks record payload.
func EncodeTracks(t Tracks) []byte {
	b := appendU32(nil, uint32(t.Frame))
	b = appendStr(b, t.Receiver)
	b = appendU32(b, uint32(len(t.Tracks)))
	for _, tr := range t.Tracks {
		b = appendI64(b, int64(tr.ID))
		b = appendBox(b, tr.Box)
		b = appendF64(b, tr.VelX)
		b = appendF64(b, tr.VelY)
		b = appendI64(b, int64(tr.Hits))
		b = appendI64(b, int64(tr.Misses))
	}
	return b
}

// DecodeTracks parses a Tracks record payload.
func DecodeTracks(data []byte) (Tracks, error) {
	c := &cursor{data: data}
	t := Tracks{
		Frame:    int(c.u32("tracks frame")),
		Receiver: c.str("tracks receiver"),
	}
	n := c.u32("tracks count")
	if c.err == nil && uint64(n)*96 > uint64(len(c.data)) {
		c.fail("tracks count")
	}
	if c.err != nil {
		return t, c.err
	}
	t.Tracks = make([]TrackState, 0, n)
	for i := uint32(0); i < n && c.err == nil; i++ {
		t.Tracks = append(t.Tracks, TrackState{
			ID:     int(c.i64("track id")),
			Box:    c.box("track box"),
			VelX:   c.f64("track velx"),
			VelY:   c.f64("track vely"),
			Hits:   int(c.i64("track hits")),
			Misses: int(c.i64("track misses")),
		})
	}
	return t, c.err
}

// EncodeEnd renders an End record payload.
func EncodeEnd(e End) []byte {
	b := appendU32(nil, uint32(e.Frames))
	return appendU32(b, uint32(e.Rounds))
}

// DecodeEnd parses an End record payload.
func DecodeEnd(data []byte) (End, error) {
	c := &cursor{data: data}
	e := End{
		Frames: int(c.u32("end frames")),
		Rounds: int(c.u32("end rounds")),
	}
	return e, c.err
}

// EpisodeWriter is the concurrency-safe typed front of a log Writer:
// producers (hub sessions, episode workers) append records from any
// goroutine; the mutex serialises them in call order.
type EpisodeWriter struct {
	mu     sync.Mutex
	w      *Writer
	f      *os.File
	rounds int
	frames int
}

// NewEpisodeWriter wraps an io.Writer. The header record is written
// immediately.
func NewEpisodeWriter(w io.Writer, h Header) (*EpisodeWriter, error) {
	lw, err := NewWriter(w)
	if err != nil {
		return nil, err
	}
	if err := lw.Append(Record{Type: RecHeader, Data: EncodeHeader(h)}); err != nil {
		return nil, err
	}
	return &EpisodeWriter{w: lw}, nil
}

// CreateEpisode opens path for writing and starts an episode log in it.
func CreateEpisode(path string, h Header) (*EpisodeWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	ew, err := NewEpisodeWriter(f, h)
	if err != nil {
		f.Close()
		return nil, err
	}
	ew.f = f
	return ew, nil
}

func (ew *EpisodeWriter) append(t RecordType, data []byte) error {
	ew.mu.Lock()
	defer ew.mu.Unlock()
	switch t {
	case RecFrame:
		ew.frames++
	case RecRound:
		ew.rounds++
	}
	return ew.w.Append(Record{Type: t, Data: data})
}

// WriteFrame appends a published-frame record.
func (ew *EpisodeWriter) WriteFrame(f Frame) error {
	return ew.append(RecFrame, EncodeFrame(f))
}

// WriteRound appends an assembled-round record.
func (ew *EpisodeWriter) WriteRound(r Round) error {
	return ew.append(RecRound, EncodeRound(r))
}

// WriteDetections appends a fused-detections record.
func (ew *EpisodeWriter) WriteDetections(d Detections) error {
	return ew.append(RecDetections, EncodeDetections(d))
}

// WriteTracks appends a track-state record.
func (ew *EpisodeWriter) WriteTracks(t Tracks) error {
	return ew.append(RecTracks, EncodeTracks(t))
}

// WriteFused appends one receiver's fused frame in the order it
// happened: the round, the detections Round.Detect produced from it,
// and the tracker state after consuming them. A nil writer records
// nothing, so producers call it unconditionally.
func (ew *EpisodeWriter) WriteFused(r Round, dets []spod.Detection, tracks []*track.Track) error {
	if ew == nil {
		return nil
	}
	if err := ew.WriteRound(r); err != nil {
		return err
	}
	if err := ew.WriteDetections(Detections{Frame: r.Frame, Receiver: r.Receiver, Dets: dets}); err != nil {
		return err
	}
	return ew.WriteTracks(Tracks{Frame: r.Frame, Receiver: r.Receiver, Tracks: TrackStates(tracks)})
}

// Close writes the End record, flushes, and closes the file if the
// writer owns one.
func (ew *EpisodeWriter) Close() error {
	ew.mu.Lock()
	defer ew.mu.Unlock()
	err := ew.w.Append(Record{Type: RecEnd, Data: EncodeEnd(End{Frames: ew.frames, Rounds: ew.rounds})})
	if ferr := ew.w.Flush(); err == nil {
		err = ferr
	}
	if ew.f != nil {
		if cerr := ew.f.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Records returns the number of records appended so far (header
// included).
func (ew *EpisodeWriter) Records() int {
	ew.mu.Lock()
	defer ew.mu.Unlock()
	return ew.w.Records()
}

// Bytes returns the encoded size so far.
func (ew *EpisodeWriter) Bytes() int64 {
	ew.mu.Lock()
	defer ew.mu.Unlock()
	return ew.w.Bytes()
}

// Episode is a fully decoded log.
type Episode struct {
	Header     Header
	Frames     []Frame
	Rounds     []Round
	Detections []Detections
	Tracks     []Tracks
	// Complete reports that the log carried its End record.
	Complete bool
	End      End
}

// ReadEpisode decodes a whole log from r. A truncated tail (no End
// record) is not an error — the decoded prefix is returned with
// Complete false — but a corrupt record is.
func ReadEpisode(r io.Reader) (*Episode, error) {
	lr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	ep := &Episode{}
	first := true
	for {
		rec, err := lr.Next()
		if err == io.EOF {
			return ep, nil
		}
		if err != nil {
			return nil, err
		}
		if first {
			if rec.Type != RecHeader {
				return nil, fmt.Errorf("store: log does not begin with a header record")
			}
			first = false
		}
		switch rec.Type {
		case RecHeader:
			if ep.Header, err = DecodeHeader(rec.Data); err != nil {
				return nil, err
			}
		case RecFrame:
			f, err := DecodeFrame(rec.Data)
			if err != nil {
				return nil, err
			}
			ep.Frames = append(ep.Frames, f)
		case RecRound:
			rd, err := DecodeRound(rec.Data)
			if err != nil {
				return nil, err
			}
			ep.Rounds = append(ep.Rounds, rd)
		case RecDetections:
			d, err := DecodeDetections(rec.Data)
			if err != nil {
				return nil, err
			}
			ep.Detections = append(ep.Detections, d)
		case RecTracks:
			t, err := DecodeTracks(rec.Data)
			if err != nil {
				return nil, err
			}
			ep.Tracks = append(ep.Tracks, t)
		case RecEnd:
			if ep.End, err = DecodeEnd(rec.Data); err != nil {
				return nil, err
			}
			ep.Complete = true
		default:
			// Unknown record types are skipped for forward compatibility.
		}
	}
}

// ReadEpisodeFile decodes the log at path.
func ReadEpisodeFile(path string) (*Episode, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadEpisode(f)
}

package hub

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"cooper/internal/fusion"
	"cooper/internal/geom"
	"cooper/internal/network"
	"cooper/internal/pointcloud"
	"cooper/internal/roi"
	"cooper/internal/spod"
)

// testCloud builds an all-around cloud so the front-FOV rung shrinks it.
func testCloud(n int, seed int64) *pointcloud.Cloud {
	rng := rand.New(rand.NewSource(seed))
	c := &pointcloud.Cloud{}
	for i := 0; i < n; i++ {
		az := rng.Float64()*2*math.Pi - math.Pi
		r := 2 + rng.Float64()*30
		c.AppendXYZR(r*math.Cos(az), r*math.Sin(az), rng.Float64()*2, rng.Float64())
	}
	return c
}

func payloadFor(t testing.TB, n int, seed int64) []byte {
	t.Helper()
	enc, err := pointcloud.EncodeQuantized(testCloud(n, seed))
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

func stateAt(x, y float64) fusion.VehicleState {
	return fusion.VehicleState{GPS: geom.V3(x, y, 0), MountHeight: 1.7}
}

func TestPublishAndAssembleRound(t *testing.T) {
	h := New(Config{})
	for i, d := range []float64{30, 10, 20} {
		id := fmt.Sprintf("v%d", i+1)
		if _, err := h.Publish(id, stateAt(d, 0), payloadFor(t, 500, int64(i+1)), 1); err != nil {
			t.Fatal(err)
		}
	}
	if h.Cached() != 3 {
		t.Fatalf("cached = %d, want 3", h.Cached())
	}

	// Requester at the origin: nearest-first order is v2 (10), v3 (20), v1 (30).
	round, err := h.AssembleRound("rx", geom.V3(0, 0, 0), RoundSpec{})
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	for _, f := range round.Frames {
		order = append(order, f.Sender)
	}
	if got := strings.Join(order, "+"); got != "v2+v3+v1" {
		t.Errorf("slot order = %s, want v2+v3+v1", got)
	}
	if round.Plan.Senders() != 3 || round.Plan.Completion() <= 0 {
		t.Errorf("plan: %d senders, completion %v", round.Plan.Senders(), round.Plan.Completion())
	}

	// k caps the senders.
	round, err = h.AssembleRound("rx", geom.V3(0, 0, 0), RoundSpec{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(round.Frames) != 2 || round.Frames[0].Sender != "v2" {
		t.Errorf("k=2 round = %+v", round.Frames)
	}

	// The requester's own frame is never selected.
	if _, err := h.Publish("rx", stateAt(0, 0), payloadFor(t, 100, 9), 1); err != nil {
		t.Fatal(err)
	}
	round, err = h.AssembleRound("rx", geom.V3(0, 0, 0), RoundSpec{})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range round.Frames {
		if f.Sender == "rx" {
			t.Error("round contains the requester's own frame")
		}
	}
}

func TestAssembleRoundBudget(t *testing.T) {
	h := New(Config{})
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("v%d", i+1)
		if _, err := h.Publish(id, stateAt(float64(10*(i+1)), 0), payloadFor(t, 4000, int64(i+1)), 1); err != nil {
			t.Fatal(err)
		}
	}

	uncapped, err := h.AssembleRound("rx", geom.V3(0, 0, 0), RoundSpec{})
	if err != nil {
		t.Fatal(err)
	}
	// Cap well below the uncapped round: at 1 Hz a cap of B bits/s buys
	// B/8 bytes per round, split across 3 senders.
	budgetBps := uint64(uncapped.Plan.TotalBytes()) // 1/8th of uncapped volume
	capped, err := h.AssembleRound("rx", geom.V3(0, 0, 0), RoundSpec{BudgetBps: budgetBps})
	if err != nil {
		t.Fatal(err)
	}
	perSender := int(budgetBps) / 8 / 3
	for _, f := range capped.Frames {
		if len(f.Payload) > perSender {
			t.Errorf("%s payload %d B exceeds per-sender budget %d B", f.Sender, len(f.Payload), perSender)
		}
		if _, err := pointcloud.Decode(f.Payload); err != nil {
			t.Errorf("%s budget-fitted payload does not decode: %v", f.Sender, err)
		}
	}
	if capped.Plan.TotalBytes() >= uncapped.Plan.TotalBytes() {
		t.Errorf("capped round (%d B) not smaller than uncapped (%d B)",
			capped.Plan.TotalBytes(), uncapped.Plan.TotalBytes())
	}

	// Determinism: the same request assembles the same round.
	again, err := h.AssembleRound("rx", geom.V3(0, 0, 0), RoundSpec{BudgetBps: budgetBps})
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Frames) != len(capped.Frames) {
		t.Fatal("round size changed between identical requests")
	}
	for i := range again.Frames {
		if !bytes.Equal(again.Frames[i].Payload, capped.Frames[i].Payload) {
			t.Errorf("frame %d payload differs between identical requests", i)
		}
	}
}

func TestPublishValidation(t *testing.T) {
	h := New(Config{})
	if _, err := h.Publish("", stateAt(0, 0), payloadFor(t, 10, 1), 1); err == nil {
		t.Error("empty sender accepted")
	}
	if _, err := h.Publish("v1", stateAt(0, 0), []byte("not a cloud"), 1); err == nil {
		t.Error("undecodable payload accepted")
	}
	if _, err := h.Publish("a,b", stateAt(0, 0), payloadFor(t, 10, 1), 1); err == nil {
		t.Error("sender containing the stale-marker separator accepted")
	}

	// Latest frame wins; stale sequence numbers do not regress the cache.
	newer := payloadFor(t, 200, 2)
	older := payloadFor(t, 100, 3)
	if _, err := h.Publish("v1", stateAt(0, 0), newer, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Publish("v1", stateAt(0, 0), older, 3); err != nil {
		t.Fatal(err)
	}
	r, err := h.AssembleRound("rx", geom.V3(0, 0, 0), RoundSpec{K: 1})
	if err != nil || len(r.Frames) != 1 || !bytes.Equal(r.Frames[0].Payload, newer) {
		t.Error("stale publish replaced a newer cached frame")
	}
}

// TestPublishRejectsNonFinite: a frame with a NaN or ±Inf coordinate
// used to be cached and served, and the receiver's ground estimate
// panicked on it. Publish must refuse it in-band, keep the sender's last
// good frame, and the session must answer MsgError and keep serving.
func TestPublishRejectsNonFinite(t *testing.T) {
	pts := testCloud(50, 1).Points()
	raw := func(mut func(p *pointcloud.Point)) []byte {
		bad := slices.Clone(pts)
		mut(&bad[7])
		return pointcloud.EncodeRaw(pointcloud.FromPoints(bad))
	}
	quant := payloadFor(t, 50, 1)
	binary.LittleEndian.PutUint64(quant[24:], math.Float64bits(math.NaN())) // origin z
	var enc pointcloud.DeltaEncoder
	key, _, err := enc.Encode(pointcloud.FromPoints(pts), 1)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(key[20:], math.Float64bits(math.Inf(1))) // origin x
	tests := []struct {
		name    string
		payload []byte
	}{
		{"CPC1 NaN z", raw(func(p *pointcloud.Point) { p.Z = math.NaN() })},
		{"CPC1 +Inf x", raw(func(p *pointcloud.Point) { p.X = math.Inf(1) })},
		{"CPC1 -Inf y", raw(func(p *pointcloud.Point) { p.Y = math.Inf(-1) })},
		{"CPC1 NaN reflectance", raw(func(p *pointcloud.Point) { p.Reflectance = math.NaN() })},
		{"CPQ1 NaN origin", quant},
		{"CPD1 keyframe +Inf origin", key},
	}
	h := New(Config{})
	good := payloadFor(t, 200, 2)
	if _, err := h.Publish("v1", stateAt(0, 0), good, 1); err != nil {
		t.Fatal(err)
	}
	for i, tt := range tests {
		if _, err := h.Publish("v1", stateAt(0, 0), tt.payload, uint64(i+2)); !errors.Is(err, pointcloud.ErrNonFinite) {
			t.Errorf("%s: err = %v, want ErrNonFinite", tt.name, err)
		}
		if _, err := h.Publish("v2", stateAt(5, 0), tt.payload, 1); err == nil {
			t.Errorf("%s: a new sender's frame was accepted", tt.name)
		}
	}
	r, err := h.AssembleRound("rx", geom.V3(0, 0, 0), RoundSpec{K: 2})
	if err != nil || h.Cached() != 1 || len(r.Frames) != 1 || !bytes.Equal(r.Frames[0].Payload, good) {
		t.Fatalf("cache holds %d vehicle(s), round err %v: want only v1's last good frame", h.Cached(), err)
	}

	_, addr := startHub(t, Config{})
	c, _, err := Connect(addr, "v1", stateAt(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Publish(stateAt(0, 0), tests[0].payload); err == nil || !strings.Contains(err.Error(), "non-finite") {
		t.Errorf("session publish: err = %v, want a non-finite error", err)
	}
	if cached, err := c.Publish(stateAt(0, 0), good); err != nil || cached != 1 {
		t.Errorf("session did not survive the rejected publish: cached=%d err=%v", cached, err)
	}
}

// startHub serves a hub on an ephemeral port and returns its address.
func startHub(t *testing.T, cfg Config) (*Hub, string) {
	t.Helper()
	h := New(cfg)
	l, err := network.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go h.Serve(l)
	t.Cleanup(func() { h.Close() })
	return h, l.Addr()
}

func TestSessionsOverTCP(t *testing.T) {
	h, addr := startHub(t, Config{})

	// First vehicle connects and publishes.
	c1, peers, err := Connect(addr, "v1", stateAt(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if peers != 0 {
		t.Errorf("hello reported %d peers, want 0", peers)
	}
	p1 := payloadFor(t, 600, 1)
	if cached, err := c1.Publish(stateAt(0, 0), p1); err != nil || cached != 1 {
		t.Fatalf("publish: cached=%d err=%v", cached, err)
	}

	// A fusion request with only the requester cached yields an empty round.
	frames, err := c1.RequestRound(stateAt(0, 0), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 0 {
		t.Errorf("lone vehicle got %d frames, want 0", len(frames))
	}

	// Second vehicle publishes; now v1's round carries v2's frame.
	c2, peers, err := Connect(addr, "v2", stateAt(15, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if peers != 1 {
		t.Errorf("hello reported %d peers, want 1", peers)
	}
	p2 := payloadFor(t, 700, 2)
	if cached, err := c2.Publish(stateAt(15, 0), p2); err != nil || cached != 2 {
		t.Fatalf("publish: cached=%d err=%v", cached, err)
	}
	frames, err = c1.RequestRound(stateAt(0, 0), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 1 {
		t.Fatalf("round = %d frames, want 1", len(frames))
	}
	if frames[0].Sender != "v2" || !bytes.Equal(frames[0].Payload, p2) {
		t.Fatalf("round frame from %q (%d B), want v2's %d B frame", frames[0].Sender, len(frames[0].Payload), len(p2))
	}

	// An undecodable publish is answered in-band and the session survives.
	if _, err := c2.Publish(stateAt(15, 0), []byte("garbage")); err == nil {
		t.Error("garbage publish did not error")
	}
	if cached, err := c2.Publish(stateAt(15, 0), p2); err != nil || cached != h.Cached() {
		t.Errorf("session did not survive a rejected publish: %v", err)
	}
}

// TestCommaSenderCannotForgeStaleMarker: a fuse reply names its stale
// senders comma-joined, so a sender called "a,b" would read back as "a"
// and "b" — flagging a fresh "a" stale and hiding its own staleness. The
// hub must refuse that name in-band and keep the session serving.
func TestCommaSenderCannotForgeStaleMarker(t *testing.T) {
	_, addr := startHub(t, Config{})
	connect := func(id string, x float64) *Client {
		t.Helper()
		c, _, err := Connect(addr, id, stateAt(x, 0))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	rx, fresh, comma := connect("rx", 0), connect("a", 10), connect("a,b", 20)

	// rx and "a" publish twice, so rx's freshness floor is 2 and "a" is
	// fresh; "a,b" publishes once and would be served stale.
	for seq := 1; seq <= 2; seq++ {
		if _, err := rx.Publish(stateAt(0, 0), payloadFor(t, 100, int64(seq))); err != nil {
			t.Fatal(err)
		}
		if _, err := fresh.Publish(stateAt(10, 0), payloadFor(t, 100, int64(seq))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := comma.Publish(stateAt(20, 0), payloadFor(t, 100, 3)); err == nil {
		t.Fatal(`publish from sender "a,b" accepted`)
	}
	frames, err := rx.RequestRound(stateAt(0, 0), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 1 || frames[0].Sender != "a" || frames[0].Stale {
		t.Fatalf("round = %+v, want only a fresh frame from a", frames)
	}
	// The rejection is in-band: the refused session still serves rounds.
	if frames, err := comma.RequestRound(stateAt(20, 0), 0, 0); err != nil || len(frames) != 2 {
		t.Fatalf("refused session's round = %d frames, %v; want 2", len(frames), err)
	}
}

// TestV1FrameEndsOnlyItsSession sends a hand-built protocol-v1 request
// (version byte 1, type 3, the retired one-shot ROI request) down one
// connection. The hub must drop that session without panicking, and
// another vehicle's session must keep serving rounds.
func TestV1FrameEndsOnlyItsSession(t *testing.T) {
	_, addr := startHub(t, Config{})
	c1, _, err := Connect(addr, "v1", stateAt(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, _, err := Connect(addr, "v2", stateAt(15, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.Publish(stateAt(15, 0), payloadFor(t, 300, 1)); err != nil {
		t.Fatal(err)
	}

	// Magic, version 1, type 3, sender "legacy", 13 zero float64s (state
	// and region), zero payload length.
	body := append([]byte("CPMX\x01\x03\x06\x00legacy"), make([]byte, 13*8+4)...)
	raw := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(append(raw, body...)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := conn.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("v1 session read = %d bytes, %v; want the hub to close it", n, err)
	}

	frames, err := c1.RequestRound(stateAt(0, 0), 1, 0)
	if err != nil {
		t.Fatalf("round after a v1 frame on another session: %v", err)
	}
	if len(frames) != 1 || frames[0].Sender != "v2" {
		t.Errorf("round = %+v, want v2's frame", frames)
	}
}

// TestServeAfterClose pins the documented restart semantics: after Close
// returns, Serve on a fresh listener resumes with the same fleet state.
func TestServeAfterClose(t *testing.T) {
	h := New(Config{})
	l1, err := network.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go h.Serve(l1)
	c1, _, err := Connect(l1.Addr(), "v1", stateAt(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Publish(stateAt(0, 0), payloadFor(t, 400, 1)); err != nil {
		t.Fatal(err)
	}
	c1.Close()
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := network.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go h.Serve(l2)
	defer h.Close()
	c2, peers, err := Connect(l2.Addr(), "v2", stateAt(10, 0))
	if err != nil {
		t.Fatalf("connect after restart: %v", err)
	}
	defer c2.Close()
	if peers != 1 {
		t.Errorf("restarted hub reports %d cached vehicles, want 1 (cache should survive)", peers)
	}
	frames, err := c2.RequestRound(stateAt(10, 0), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 1 || frames[0].Sender != "v1" {
		t.Errorf("restarted hub round = %+v, want v1's pre-restart frame", frames)
	}
}

// TestConcurrentSessions hammers one hub from many client goroutines; run
// with -race this is the data-race check for the serving layer.
func TestConcurrentSessions(t *testing.T) {
	h, addr := startHub(t, Config{})
	const vehicles = 8
	const rounds = 5

	var wg sync.WaitGroup
	errs := make([]error, vehicles)
	for i := 0; i < vehicles; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := fmt.Sprintf("v%d", i+1)
			st := stateAt(float64(10*i), 0)
			cl, _, err := Connect(addr, id, st)
			if err != nil {
				errs[i] = err
				return
			}
			defer cl.Close()
			payload := payloadFor(t, 300+i*50, int64(i))
			for r := 0; r < rounds; r++ {
				if _, err := cl.Publish(st, payload); err != nil {
					errs[i] = err
					return
				}
				if _, err := cl.RequestRound(st, 3, 2_000_000); err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("vehicle %d: %v", i+1, err)
		}
	}
	if h.Cached() != vehicles {
		t.Errorf("cached = %d, want %d", h.Cached(), vehicles)
	}
}

// freshSelection re-derives a capped payload the way a hub without any
// memo would: decode the published bytes and walk a one-shot ladder.
func freshSelection(t *testing.T, payload []byte, perSender int) roi.Selection {
	t.Helper()
	cloud, err := pointcloud.Decode(payload)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := roi.Select(roi.Source{Cloud: cloud, Derive: func() *spod.FeatureFrame {
		return spod.NewDefault().EncodeFeatureFrame(cloud, nil).Prune(fusion.DefaultFeatureBackend().TransmitFloor)
	}}, perSender)
	if err != nil {
		t.Fatal(err)
	}
	return sel
}

// TestConcurrentCappedRequesters has many requesters fit the same cached
// frames under different caps at once — first touch and warm memo alike.
// Every served payload must equal a fresh one-shot selection; run with
// -race this is the data-race check for the per-frame rung memo.
func TestConcurrentCappedRequesters(t *testing.T) {
	h := New(Config{})
	const senders = 4
	published := make(map[string][]byte, senders)
	for i := 0; i < senders; i++ {
		id := fmt.Sprintf("v%d", i+1)
		published[id] = payloadFor(t, 2000, int64(40+i))
		if _, err := h.Publish(id, stateAt(float64(10*(i+1)), 0), published[id], 1); err != nil {
			t.Fatal(err)
		}
	}
	// Per-sender shares that land on every rung: full frame, front FOV,
	// stride-downsampled front FOV and the feature frame.
	full := len(published["v1"])
	shares := []int{full + 100, full * 2 / 5, full / 5, pointcloud.EncodedSizeQuantized(roi.MinStridePoints) - 1}
	budgets := make([]uint64, len(shares))
	want := make([]map[string]roi.Selection, len(shares))
	rungs := map[roi.Category]bool{}
	for i, share := range shares {
		budgets[i] = uint64(float64(share*senders*8) * h.cfg.Scheduler.RateHz)
		want[i] = make(map[string]roi.Selection, senders)
		for id, p := range published {
			sel := freshSelection(t, p, h.perSender(budgets[i], senders))
			want[i][id] = sel
			rungs[sel.Category] = true
		}
	}
	if len(rungs) != 3 {
		t.Fatalf("caps reach categories %v, want full frame, front FOV and feature", rungs)
	}

	const requesters = 8
	var wg sync.WaitGroup
	errs := make([]error, requesters)
	for r := 0; r < requesters; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for n := 0; n < 3*len(budgets); n++ {
				b := (r + n) % len(budgets)
				round, err := h.AssembleRound(fmt.Sprintf("rx%d", r), geom.V3(0, 0, 0), RoundSpec{BudgetBps: budgets[b]})
				if err != nil {
					errs[r] = err
					return
				}
				for _, f := range round.Frames {
					w := want[b][f.Sender]
					if !bytes.Equal(f.Payload, w.Payload) || f.Category != w.Category || f.Points != w.Points || f.Downsampled != w.Downsampled {
						errs[r] = fmt.Errorf("cap %d: %s served %v/%d B, fresh selection %v/%d B",
							b, f.Sender, f.Category, len(f.Payload), w.Category, len(w.Payload))
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Errorf("requester %d: %v", r, err)
		}
	}
}

// TestNonCanonicalPublishServedCanonically pins the full-rung shortcut to
// canonical publishes: a CPQ1 frame that does not survive a re-encode
// (here its first record sits a cell off the origin) is served, once its
// full frame fits the cap, as the canonical re-encoding — exactly what a
// fresh selection produces — never as the published bytes.
func TestNonCanonicalPublishServedCanonically(t *testing.T) {
	h := New(Config{})
	payload := payloadFor(t, 500, 3)
	payload[pointcloud.EncodedSizeQuantized(0)] = 1
	if _, err := h.Publish("v1", stateAt(10, 0), payload, 1); err != nil {
		t.Fatal(err)
	}
	budget := uint64(float64(8*(len(payload)+100)) * h.cfg.Scheduler.RateHz)
	round, err := h.AssembleRound("rx", geom.V3(0, 0, 0), RoundSpec{BudgetBps: budget})
	if err != nil {
		t.Fatal(err)
	}
	got := round.Frames[0]
	want := freshSelection(t, payload, h.perSender(budget, 1))
	if got.Category != roi.CategoryFullFrame || want.Category != roi.CategoryFullFrame {
		t.Fatalf("served %v, fresh %v; want the full frame", got.Category, want.Category)
	}
	if bytes.Equal(got.Payload, payload) {
		t.Fatal("served the non-canonical published bytes")
	}
	if !bytes.Equal(got.Payload, want.Payload) {
		t.Fatal("served payload differs from the canonical re-encode")
	}
}

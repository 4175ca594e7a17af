package hub

import (
	"fmt"
	"strings"

	"cooper/internal/fusion"
	"cooper/internal/network"
	"cooper/internal/pointcloud"
	"cooper/internal/scene"
)

// Client is a vehicle's session with a fleet hub: a thin, synchronous
// protocol-v2 wrapper over the transport. A Client is not safe for
// concurrent use; each vehicle session owns one.
type Client struct {
	conn    *network.Transport
	id      string
	seq     uint64
	denc    pointcloud.DeltaEncoder
	retries uint64
	// lastWire is the payload the most recent PublishDelta actually put
	// on the wire (the keyframe, when the delta was retried) — what an
	// episode store records as the published frame.
	lastWire []byte
}

// Connect dials the hub and opens a session for the named vehicle,
// exchanging hellos. peers reports how many vehicles the hub already has
// cached.
func Connect(addr, id string, state fusion.VehicleState) (c *Client, peers int, err error) {
	conn, err := network.Dial(addr)
	if err != nil {
		return nil, 0, err
	}
	c = &Client{conn: conn, id: id}
	if err := conn.Send(network.Message{Type: network.MsgHello, Sender: id, State: state}); err != nil {
		conn.Close()
		return nil, 0, err
	}
	ack, err := c.receive(network.MsgHello)
	if err != nil {
		conn.Close()
		return nil, 0, err
	}
	return c, int(ack.Count), nil
}

// Close ends the session.
func (c *Client) Close() error { return c.conn.Close() }

// Publish sends one frame (the encoded cloud plus capture state) and
// waits for the hub's ack, returning how many vehicles the hub now has
// cached. Successive publishes carry increasing sequence numbers, so the
// hub's latest-frame cache always converges on the newest frame.
func (c *Client) Publish(state fusion.VehicleState, payload []byte) (cached int, err error) {
	c.seq++
	return c.sendFrame(network.MsgFrame, state, payload)
}

// PublishDelta publishes one frame on the client's CPD1 delta stream —
// the protocol-v3 alternative to Publish. The cloud is encoded as a
// keyframe or a delta against the client's last keyframe (see
// pointcloud.DeltaEncoder); the hub reconstructs the full frame before
// caching, so fusion rounds are unaffected by how the frame travelled.
// If the hub reports missing or stale keyframe state (a hub restart, a
// lost publish), the client transparently re-sends the frame as a fresh
// keyframe. wireBytes reports the payload size that actually went on the
// wire — the v3 bandwidth win over EncodedSizeQuantized.
func (c *Client) PublishDelta(state fusion.VehicleState, cloud *pointcloud.Cloud) (cached, wireBytes int, err error) {
	c.seq++
	payload, _, err := c.denc.Encode(cloud, c.seq)
	if err != nil {
		return 0, 0, err
	}
	cached, err = c.sendFrame(network.MsgDeltaFrame, state, payload)
	if err != nil && strings.Contains(err.Error(), "keyframe") {
		// The hub could not apply the delta; recover with a keyframe.
		c.retries++
		c.denc.ForceKeyframe()
		if payload, _, err = c.denc.Encode(cloud, c.seq); err != nil {
			return 0, 0, err
		}
		cached, err = c.sendFrame(network.MsgDeltaFrame, state, payload)
	}
	if err != nil {
		return 0, 0, err
	}
	c.lastWire = payload
	return cached, len(payload), nil
}

// LastWirePayload returns the bytes the most recent PublishDelta put on
// the wire.
func (c *Client) LastWirePayload() []byte { return c.lastWire }

// KeyframeRetries reports how many delta publishes the client had to
// recover in-band with a forced keyframe (hub restarts, lost keyframes).
// Silent before this counter existed, the recovery path is now the wire
// report's and telemetry's keyframe-retry signal.
func (c *Client) KeyframeRetries() uint64 { return c.retries }

// sendFrame sends one frame of the given message type under the current
// sequence number and waits for the hub's ack, returning how many
// vehicles the hub now has cached.
func (c *Client) sendFrame(typ network.MsgType, state fusion.VehicleState, payload []byte) (cached int, err error) {
	if err := c.conn.Send(network.Message{
		Type:    typ,
		Sender:  c.id,
		State:   state,
		Payload: payload,
		Seq:     c.seq,
	}); err != nil {
		return 0, err
	}
	ack, err := c.receive(typ)
	return int(ack.Count), err
}

// RequestRound asks the hub for a fusion round of up to k senders under a
// bandwidth cap of budgetBps bits/s (0 each for the hub defaults) and
// collects the announced frames in slot order.
func (c *Client) RequestRound(state fusion.VehicleState, k int, budgetBps uint64) ([]RoundFrame, error) {
	return c.requestRound(state, k, budgetBps, network.MsgFuseRequest, network.MsgFrame)
}

// PublishFeatures sends one CPF3-encoded feature frame and waits for the
// hub's ack, mirroring Publish's sequence discipline.
func (c *Client) PublishFeatures(state fusion.VehicleState, payload []byte) (cached int, err error) {
	c.seq++
	return c.sendFrame(network.MsgFeatureFrame, state, payload)
}

// RequestFeatureRound is RequestRound at the feature level: every frame
// arrives as a budget-trimmed CPF3 feature payload.
func (c *Client) RequestFeatureRound(state fusion.VehicleState, k int, budgetBps uint64) ([]RoundFrame, error) {
	return c.requestRound(state, k, budgetBps, network.MsgFeatureFuseRequest, network.MsgFeatureFrame)
}

func (c *Client) requestRound(state fusion.VehicleState, k int, budgetBps uint64, req, frameType network.MsgType) ([]RoundFrame, error) {
	if err := c.conn.Send(network.Message{
		Type:   req,
		Sender: c.id,
		State:  state,
		Count:  uint32(max(k, 0)),
		Budget: budgetBps,
		// The client's own publish sequence is its freshness floor: any
		// served sender older than the requester's current frame gets
		// flagged stale on the reply.
		Seq: c.seq,
	}); err != nil {
		return nil, err
	}
	reply, err := c.receive(network.MsgFuseReply)
	if err != nil {
		return nil, err
	}
	// The reply payload is the partial-round marker: stale sender names,
	// comma-joined. Hubs predating the marker send none.
	stale := make(map[string]bool)
	if len(reply.Payload) > 0 {
		for _, id := range strings.Split(string(reply.Payload), staleSep) {
			stale[id] = true
		}
	}
	// Count comes off the wire: preallocate at most one fleet's worth
	// and let append grow past it, so a lying count ends in a receive
	// error rather than a huge allocation.
	frames := make([]RoundFrame, 0, min(reply.Count, scene.MaxFleet))
	for i := uint32(0); i < reply.Count; i++ {
		m, err := c.receive(frameType)
		if err != nil {
			return nil, err
		}
		frames = append(frames, RoundFrame{Sender: m.Sender, State: m.State, Payload: m.Payload, Stale: stale[m.Sender]})
	}
	return frames, nil
}

// receive reads the next message, converting in-band MsgError replies and
// unexpected types into errors.
func (c *Client) receive(want network.MsgType) (network.Message, error) {
	m, err := c.conn.Receive()
	if err != nil {
		return network.Message{}, err
	}
	if m.Type == network.MsgError {
		return network.Message{}, fmt.Errorf("hub error: %s", m.Payload)
	}
	if m.Type != want {
		return network.Message{}, fmt.Errorf("hub: expected message type %d, got %d", want, m.Type)
	}
	return m, nil
}

package hub

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"

	"cooper/internal/network"
)

// hubID is the sender name the hub signs its own messages with.
const hubID = "hub"

// staleSep joins the stale senders' names in a fuse reply's partial-round
// marker; Publish rejects sender IDs that contain it.
const staleSep = ","

// Serve accepts vehicle sessions on the listener until Close (or a fatal
// accept error). Each session runs on its own goroutine; Serve itself
// blocks, so callers usually run it on a goroutine of their own. After
// Close has returned, Serve may be called again with a fresh listener:
// the frame cache survives, so a restarted hub resumes with the same
// fleet state.
func (h *Hub) Serve(l *network.Listener) error {
	h.sessMu.Lock()
	h.closed = false
	h.listener = l
	h.sessMu.Unlock()

	for {
		conn, err := l.Accept()
		if err != nil {
			if h.isClosed() {
				return nil
			}
			return err
		}
		if !h.track(conn) {
			conn.Close()
			return nil
		}
		h.wg.Add(1)
		go func() {
			defer h.wg.Done()
			defer h.untrack(conn)
			h.session(conn)
		}()
	}
}

// Close stops accepting, closes every live session and waits for the
// session goroutines to drain. The frame cache survives — Serve may be
// called again afterwards with a fresh listener and resumes with the
// same fleet state.
func (h *Hub) Close() error {
	h.sessMu.Lock()
	h.closed = true
	l := h.listener
	h.listener = nil
	conns := make([]*network.Transport, 0, len(h.sessions))
	for c := range h.sessions {
		//cooper:maporder teardown only: close order of dying connections is never output-visible
		conns = append(conns, c)
	}
	h.sessMu.Unlock()

	var err error
	if l != nil {
		err = l.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	h.wg.Wait()
	if herr := h.StopHTTP(); err == nil {
		err = herr
	}
	return err
}

func (h *Hub) isClosed() bool {
	h.sessMu.Lock()
	defer h.sessMu.Unlock()
	return h.closed
}

func (h *Hub) track(c *network.Transport) bool {
	h.sessMu.Lock()
	defer h.sessMu.Unlock()
	if h.closed {
		return false
	}
	h.sessions[c] = struct{}{}
	return true
}

func (h *Hub) untrack(c *network.Transport) {
	h.sessMu.Lock()
	delete(h.sessions, c)
	h.sessMu.Unlock()
	c.Close()
}

// session is one vehicle's message loop. It exits when the peer
// disconnects or a protocol error makes the stream unusable.
func (h *Hub) session(conn *network.Transport) {
	peer := "?"
	for {
		msg, err := conn.Receive()
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && !h.isClosed() {
				h.logf("session %s: %v", peer, err)
			}
			return
		}
		if msg.Sender != "" {
			peer = msg.Sender
		}
		if err := h.handle(conn, msg); err != nil {
			h.logf("session %s: %v", peer, err)
			return
		}
	}
}

// handle dispatches one message. A returned error means the session
// should end; recoverable request errors are answered with MsgError
// instead.
func (h *Hub) handle(conn *network.Transport, msg network.Message) error {
	switch msg.Type {
	case network.MsgHello:
		h.logf("hello from %s", msg.Sender)
		return conn.Send(network.Message{
			Type:   network.MsgHello,
			Sender: hubID,
			Count:  uint32(h.Cached()),
		})

	case network.MsgFrame, network.MsgFeatureFrame, network.MsgDeltaFrame:
		cached, err := h.Publish(msg.Sender, msg.State, msg.Payload, msg.Seq)
		if err != nil {
			return h.sendError(conn, err)
		}
		h.logf("frame from %s (%d B, seq %d); %d vehicle(s) cached", msg.Sender, len(msg.Payload), msg.Seq, cached)
		return conn.Send(network.Message{
			Type:   msg.Type,
			Sender: hubID,
			Seq:    msg.Seq,
			Count:  uint32(cached),
		})

	case network.MsgFuseRequest, network.MsgFeatureFuseRequest:
		feature := msg.Type == network.MsgFeatureFuseRequest
		// msg.Seq is the requester's freshness floor (its own publish
		// sequence); pre-floor clients send 0, which flags nothing.
		round, err := h.AssembleRound(msg.Sender, msg.State.GPS, RoundSpec{
			K: int(msg.Count), BudgetBps: msg.Budget, Floor: msg.Seq, Feature: feature,
		})
		if err != nil {
			return h.sendError(conn, err)
		}
		seq := round.Seq
		h.logf("round %d for %s: %d frame(s), %d B, completes in %v, %d stale",
			seq, msg.Sender, len(round.Frames), round.Plan.TotalBytes(), round.Plan.Completion(), len(round.Stale))
		if err := conn.Send(network.Message{
			Type:   network.MsgFuseReply,
			Sender: hubID,
			Count:  uint32(len(round.Frames)),
			Seq:    seq,
			// The partial-round marker travels in-band on the reply: the
			// stale senders' names, comma-joined in slot order. Empty for
			// a fully fresh round; older clients ignore the field.
			Payload: []byte(strings.Join(round.Stale, staleSep)),
		}); err != nil {
			return err
		}
		frameType := network.MsgFrame
		if feature {
			frameType = network.MsgFeatureFrame
		}
		for slot, f := range round.Frames {
			if err := conn.Send(network.Message{
				Type:    frameType,
				Sender:  f.Sender,
				State:   f.State,
				Payload: f.Payload,
				Seq:     uint64(slot),
			}); err != nil {
				return err
			}
		}
		return nil

	default:
		return h.sendError(conn, fmt.Errorf("hub: unexpected message type %d", msg.Type))
	}
}

// sendError answers a recoverable request error in-band; the session
// continues. The transport write error (if any) ends the session.
func (h *Hub) sendError(conn *network.Transport, cause error) error {
	return conn.Send(network.Message{
		Type:    network.MsgError,
		Sender:  hubID,
		Payload: []byte(cause.Error()),
	})
}

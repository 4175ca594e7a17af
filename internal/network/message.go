package network

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"cooper/internal/fusion"
	"cooper/internal/geom"
)

// MsgType tags the Cooper wire messages.
type MsgType uint8

// Protocol-v2 message types: the fleet-hub session protocol. A vehicle's
// 1:1 exchange of §II-C/§II-D is the one-sender case of a hub session
// (publish, then request a round with Count = 1).
const (
	// MsgHello opens a hub session: the vehicle announces its identity
	// and GPS/IMU state. The hub acknowledges with its own MsgHello
	// whose Count reports the number of cached frames.
	MsgHello MsgType = iota + 16
	// MsgFrame publishes (client→hub) or delivers (hub→client) one
	// vehicle frame: sender state plus the encoded cloud. Seq orders a
	// vehicle's successive frames on publish and carries the broadcast
	// slot index on delivery. The hub acknowledges a publish with an
	// empty MsgFrame echoing Seq, Count = frames now cached.
	MsgFrame
	// MsgFuseRequest asks the hub for a fused round: up to Count sender
	// frames assembled for the requester, selected nearest-first, with
	// payloads fitted to the Budget bandwidth cap (bits/s, 0 = none).
	MsgFuseRequest
	// MsgFuseReply announces a fusion round: Count MsgFrame messages
	// follow, one per scheduled sender slot.
	MsgFuseReply
	// MsgError reports a session error; the text rides in Payload.
	MsgError
)

// Protocol-v3 message types, the feature-level (F-Cooper) extension of
// the hub session protocol. A v3 message reuses the v2 layout (the
// Budget/Count/Seq trailer) under version byte 3, so v2 peers reject the
// version cleanly instead of misparsing the frame.
const (
	// MsgFeatureFrame publishes (client→hub) or delivers (hub→client)
	// one sparse feature frame: sender state plus the CPF3-encoded
	// post-convolution planes. Seq and the ack discipline mirror
	// MsgFrame's.
	MsgFeatureFrame MsgType = iota + 24
	// MsgFeatureFuseRequest asks the hub for a feature-level fusion
	// round: like MsgFuseRequest, but every scheduled sender arrives as
	// a MsgFeatureFrame, budget-trimmed by column salience.
	MsgFeatureFuseRequest
	// MsgDeltaFrame publishes (client→hub) one frame of a CPD1 delta
	// stream: a keyframe, or a delta keyed to the publisher's last
	// keyframe. The ack discipline mirrors MsgFrame's. A delta the hub
	// cannot apply (missing or stale keyframe state) is answered with
	// MsgError naming the keyframe error; the publisher recovers by
	// re-sending a keyframe. The hub reconstructs and caches canonical
	// full frames, so fusion rounds always deliver MsgFrame.
	MsgDeltaFrame
)

// version returns the wire version a type is framed with: 2 for the hub
// session types, 3 for the feature-level extension (same layout, distinct
// version byte), 0 for anything else.
func (t MsgType) version() byte {
	switch {
	case t >= MsgFeatureFrame:
		return 3
	case t >= MsgHello:
		return 2
	}
	return 0
}

// Message is one Cooper exchange unit on the wire: the sender's identity
// and GPS/IMU state, the session fields, and an opaque payload.
type Message struct {
	Type   MsgType
	Sender string
	State  fusion.VehicleState
	// Payload is the encoded frame (CPQ1, CPF3 or CPD1) on frame
	// messages, the stale-sender list on MsgFuseReply and the error text
	// on MsgError.
	Payload []byte

	// Budget is a bandwidth cap in bits per second (0 = uncapped). A
	// client advertises it on MsgFuseRequest; the hub fits the round's
	// payloads under it.
	Budget uint64
	// Count is a small cardinality: requested senders on MsgFuseRequest,
	// following frames on MsgFuseReply, cached frames on acks.
	Count uint32
	// Seq is a sequence number: frame generation on publish, broadcast
	// slot index on delivery.
	Seq uint64
}

// Wire format errors.
var (
	ErrBadMessage = errors.New("network: malformed message")
	ErrTooBig     = errors.New("network: message exceeds size limit")
)

// MaxMessageSize bounds a single message (16 MiB), protecting receivers
// from hostile or corrupt length prefixes.
const MaxMessageSize = 16 << 20

var messageMagic = [4]byte{'C', 'P', 'M', 'X'}

const (
	headerFixed = 4 + 1 + 1 + 2 // magic, version, type, sender length
	stateSize   = 7 * 8         // GPS x/y/z, yaw, pitch, roll, mount height
	// reservedSize is a block of zero bytes after the state. Version 1
	// carried a requested region there; v2/v3 keep the slot so their
	// frames stay byte-identical.
	reservedSize = 6 * 8
	v2Extra      = 8 + 4 + 8 // budget, count, seq
	bodyFixed    = stateSize + reservedSize + v2Extra + 4
)

// EncodeMessage serialises a message. The wire version is chosen from the
// message type: hub-protocol types use version 2, feature-level types
// version 3 (same layout, distinct version byte); any other type is
// rejected.
func EncodeMessage(m Message) ([]byte, error) {
	if len(m.Sender) > 65535 {
		return nil, fmt.Errorf("%w: sender name too long", ErrBadMessage)
	}
	version := m.Type.version()
	if version == 0 {
		return nil, fmt.Errorf("%w: unknown message type %d", ErrBadMessage, m.Type)
	}
	size := headerFixed + len(m.Sender) + bodyFixed + len(m.Payload)
	if size > MaxMessageSize {
		return nil, ErrTooBig
	}
	buf := make([]byte, 0, size)
	buf = append(buf, messageMagic[:]...)
	buf = append(buf, version, byte(m.Type))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(m.Sender)))
	buf = append(buf, m.Sender...)
	for _, f := range []float64{
		m.State.GPS.X, m.State.GPS.Y, m.State.GPS.Z,
		m.State.Yaw, m.State.Pitch, m.State.Roll, m.State.MountHeight,
	} {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
	}
	buf = append(buf, make([]byte, reservedSize)...)
	buf = binary.LittleEndian.AppendUint64(buf, m.Budget)
	buf = binary.LittleEndian.AppendUint32(buf, m.Count)
	buf = binary.LittleEndian.AppendUint64(buf, m.Seq)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.Payload)))
	buf = append(buf, m.Payload...)
	return buf, nil
}

// DecodeMessage parses one serialised message, which must fill data
// exactly. It accepts only what EncodeMessage produces: a v2/v3 type
// under its own version byte, a zero reserved block and no bytes after
// the payload, so every accepted message re-encodes to the same bytes.
func DecodeMessage(data []byte) (Message, error) {
	var m Message
	if len(data) < headerFixed {
		return m, fmt.Errorf("%w: short header", ErrBadMessage)
	}
	if [4]byte(data[:4]) != messageMagic {
		return m, fmt.Errorf("%w: bad magic", ErrBadMessage)
	}
	m.Type = MsgType(data[5])
	if version := data[4]; version < 2 || version > 3 {
		return m, fmt.Errorf("%w: unsupported version %d", ErrBadMessage, version)
	} else if version != m.Type.version() {
		return m, fmt.Errorf("%w: type %d under version %d", ErrBadMessage, m.Type, version)
	}
	senderLen := int(binary.LittleEndian.Uint16(data[6:]))
	off := headerFixed
	if len(data) < off+senderLen+bodyFixed {
		return m, fmt.Errorf("%w: truncated", ErrBadMessage)
	}
	m.Sender = string(data[off : off+senderLen])
	off += senderLen
	read := func() float64 {
		v := math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
		off += 8
		return v
	}
	m.State.GPS = geom.V3(read(), read(), read())
	m.State.Yaw, m.State.Pitch, m.State.Roll = read(), read(), read()
	m.State.MountHeight = read()
	for _, b := range data[off : off+reservedSize] {
		if b != 0 {
			return m, fmt.Errorf("%w: nonzero reserved bytes", ErrBadMessage)
		}
	}
	off += reservedSize
	m.Budget = binary.LittleEndian.Uint64(data[off:])
	m.Count = binary.LittleEndian.Uint32(data[off+8:])
	m.Seq = binary.LittleEndian.Uint64(data[off+12:])
	off += v2Extra
	payloadLen := int(binary.LittleEndian.Uint32(data[off:]))
	off += 4
	if payloadLen > MaxMessageSize {
		return m, ErrTooBig
	}
	switch rest := len(data) - off; {
	case rest < payloadLen:
		return m, fmt.Errorf("%w: truncated payload", ErrBadMessage)
	case rest > payloadLen:
		return m, fmt.Errorf("%w: %d trailing bytes after the payload", ErrBadMessage, rest-payloadLen)
	}
	m.Payload = make([]byte, payloadLen)
	copy(m.Payload, data[off:])
	return m, nil
}

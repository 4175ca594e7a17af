package network

import (
	"encoding/binary"
	"errors"
	"net"
	"testing"
	"time"

	"cooper/internal/fusion"
	"cooper/internal/geom"
)

// receiveRaw feeds raw bytes to a Transport and returns what Receive
// makes of them — the harness for the framing robustness table.
func receiveRaw(t *testing.T, raw []byte) (Message, error) {
	t.Helper()
	c1, c2 := net.Pipe()
	go func() {
		c1.Write(raw)
		c1.Close()
	}()
	c2.SetReadDeadline(time.Now().Add(5 * time.Second))
	return NewTransport(c2).Receive()
}

// frame wraps an encoded message body in the transport's length prefix.
func frame(body []byte) []byte {
	out := make([]byte, 4+len(body))
	binary.LittleEndian.PutUint32(out, uint32(len(body)))
	copy(out[4:], body)
	return out
}

func validBody(t *testing.T) []byte {
	t.Helper()
	body, err := EncodeMessage(Message{Type: MsgFrame, Sender: "car1", Payload: []byte{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestFramingErrors feeds the transport malformed wire data; every row
// must produce a clean error — never a panic, never a garbage message.
func TestFramingErrors(t *testing.T) {
	tests := []struct {
		name string
		raw  func(t *testing.T) []byte
		want error // nil = any non-nil error
	}{
		{
			name: "truncated length prefix",
			raw:  func(t *testing.T) []byte { return []byte{42, 0} },
		},
		{
			name: "oversized length prefix",
			raw: func(t *testing.T) []byte {
				var p [4]byte
				binary.LittleEndian.PutUint32(p[:], MaxMessageSize+1)
				return p[:]
			},
			want: ErrTooBig,
		},
		{
			name: "truncated frame body",
			raw: func(t *testing.T) []byte {
				full := frame(validBody(t))
				return full[:len(full)-10]
			},
		},
		{
			name: "empty frame",
			raw:  func(t *testing.T) []byte { return frame(nil) },
			want: ErrBadMessage,
		},
		{
			name: "bad magic",
			raw: func(t *testing.T) []byte {
				body := validBody(t)
				body[0] = 'X'
				return frame(body)
			},
			want: ErrBadMessage,
		},
		{
			name: "bad version byte",
			raw: func(t *testing.T) []byte {
				body := validBody(t)
				body[4] = 9
				return frame(body)
			},
			want: ErrBadMessage,
		},
		{
			name: "version zero",
			raw: func(t *testing.T) []byte {
				body := validBody(t)
				body[4] = 0
				return frame(body)
			},
			want: ErrBadMessage,
		},
		{
			name: "sender length past end",
			raw: func(t *testing.T) []byte {
				body := validBody(t)
				binary.LittleEndian.PutUint16(body[6:], 60000)
				return frame(body)
			},
			want: ErrBadMessage,
		},
		{
			name: "payload length past end",
			raw: func(t *testing.T) []byte {
				body := validBody(t)
				// The payload length field sits 4+3 bytes from the end
				// (3-byte payload): corrupt it upward.
				off := len(body) - 3 - 4
				binary.LittleEndian.PutUint32(body[off:], 1000)
				return frame(body)
			},
			want: ErrBadMessage,
		},
		{
			name: "v2 header truncated to v1 size",
			raw: func(t *testing.T) []byte {
				body, err := EncodeMessage(Message{Type: MsgFuseRequest, Sender: "v1", Count: 3})
				if err != nil {
					t.Fatal(err)
				}
				return frame(body[:len(body)-v2Extra-4])
			},
			want: ErrBadMessage,
		},
		{
			name: "one trailing byte",
			raw: func(t *testing.T) []byte {
				return frame(append(validBody(t), 0))
			},
			want: ErrBadMessage,
		},
		{
			name: "second message in one frame",
			raw: func(t *testing.T) []byte {
				return frame(append(validBody(t), validBody(t)...))
			},
			want: ErrBadMessage,
		},
		{
			name: "retired version 1",
			raw: func(t *testing.T) []byte {
				body := validBody(t)
				body[4] = 1
				return frame(body)
			},
			want: ErrBadMessage,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := receiveRaw(t, tc.raw(t))
			if err == nil {
				t.Fatal("malformed input produced no error")
			}
			if tc.want != nil && !errors.Is(err, tc.want) {
				t.Errorf("error = %v, want errors.Is(_, %v)", err, tc.want)
			}
		})
	}
}

// TestFramingValidAfterGarbageConnection confirms the happy path through
// the same harness: a well-formed frame round-trips.
func TestFramingValid(t *testing.T) {
	m, err := receiveRaw(t, frame(validBody(t)))
	if err != nil {
		t.Fatal(err)
	}
	if m.Sender != "car1" || m.Type != MsgFrame {
		t.Errorf("got %+v", m)
	}
}

func TestMessageV2RoundTrip(t *testing.T) {
	m := Message{
		Type:   MsgFuseRequest,
		Sender: "v3",
		State:  fusion.VehicleState{GPS: geom.V3(1, 2, 0), Yaw: 0.5, MountHeight: 1.7},
		Budget: 2_000_000,
		Count:  5,
		Seq:    42,
	}
	enc, err := EncodeMessage(m)
	if err != nil {
		t.Fatal(err)
	}
	if enc[4] != 2 {
		t.Fatalf("v2 message encoded with version %d", enc[4])
	}
	got, err := DecodeMessage(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Budget != m.Budget || got.Count != m.Count || got.Seq != m.Seq || got.Sender != m.Sender {
		t.Errorf("round trip: got %+v, want %+v", got, m)
	}

	// Delta frames ride the v3 wire layout: same framing, version byte 3,
	// so v2-only peers reject them cleanly instead of misparsing.
	enc, err = EncodeMessage(Message{
		Type:    MsgDeltaFrame,
		Sender:  "v1",
		Payload: []byte("CPD1-opaque-payload"),
		Seq:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if enc[4] != 3 {
		t.Fatalf("delta frame encoded with version %d, want 3", enc[4])
	}
	got, err = DecodeMessage(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != MsgDeltaFrame || got.Seq != 7 || string(got.Payload) != "CPD1-opaque-payload" {
		t.Errorf("delta frame round trip: got %+v", got)
	}
}

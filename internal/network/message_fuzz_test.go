package network

import (
	"bytes"
	"testing"

	"cooper/internal/fusion"
	"cooper/internal/geom"
)

// FuzzDecodeMessage feeds arbitrary bytes to the message decoder: it
// must never panic, and whatever it accepts must re-encode to exactly
// the input bytes (no slack anywhere in the layout).
func FuzzDecodeMessage(f *testing.F) {
	st := fusion.VehicleState{GPS: geom.V3(1, -2, 0.5), Yaw: 0.3, MountHeight: 1.7}
	for _, m := range []Message{
		{Type: MsgHello, Sender: "car1", State: st},
		{Type: MsgFrame, Sender: "car2", State: st, Seq: 3, Payload: []byte("CPQ1....")},
		{Type: MsgFuseRequest, Sender: "car1", Budget: 2_000_000, Count: 3},
		{Type: MsgFuseReply, Count: 1, Payload: []byte("car2")},
		{Type: MsgError, Sender: "hub", Payload: []byte("boom")},
		{Type: MsgFeatureFrame, Sender: "car3", Payload: []byte("CPF3")},
		{Type: MsgDeltaFrame, Sender: "car4", Seq: 9, Payload: []byte("CPD1")},
	} {
		enc, err := EncodeMessage(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		f.Add(append(enc, 0))
	}
	f.Add([]byte("CPMX\x01\x03\x00\x00"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeMessage(data)
		if err != nil {
			return
		}
		enc, err := EncodeMessage(m)
		if err != nil {
			t.Fatalf("accepted message does not re-encode: %v", err)
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("re-encode differs:\n in  %x\n out %x", data, enc)
		}
	})
}

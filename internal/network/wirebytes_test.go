package network

import (
	"encoding/hex"
	"strings"
	"testing"

	"cooper/internal/fusion"
	"cooper/internal/geom"
)

// TestWireBytes pins the exact encoding of one message of every hub
// protocol type. Any change to these bytes is a protocol change and
// needs a version bump, not a silent re-layout.
func TestWireBytes(t *testing.T) {
	st := fusion.VehicleState{GPS: geom.V3(12.5, -3.25, 0.5), Yaw: 0.75, Pitch: -0.125, Roll: 0.0625, MountHeight: 1.73}
	// Little-endian float64s GPS.X, GPS.Y, GPS.Z, Yaw, Pitch, Roll,
	// MountHeight, then the 48 reserved zero bytes.
	const state = "0000000000002940" + "0000000000000ac0" + "000000000000e03f" +
		"000000000000e83f" + "000000000000c0bf" + "000000000000b03f" + "ae47e17a14aefb3f"
	zeroState := strings.Repeat("00", 7*8)
	reserved := strings.Repeat("00", 48)
	tests := []struct {
		msg  Message
		want string // magic, version, type, sender | state | reserved | budget, count, seq | payload
	}{
		{
			Message{Type: MsgHello, Sender: "car1", State: st, Count: 2},
			"43504d58" + "02" + "10" + "0400" + "63617231" + state + reserved +
				"0000000000000000" + "02000000" + "0000000000000000" + "00000000",
		},
		{
			Message{Type: MsgFrame, Sender: "car2", State: st, Seq: 7, Payload: []byte("CPQ1")},
			"43504d58" + "02" + "11" + "0400" + "63617232" + state + reserved +
				"0000000000000000" + "00000000" + "0700000000000000" + "04000000" + "43505131",
		},
		{
			Message{Type: MsgFuseRequest, Sender: "car1", State: st, Budget: 2_000_000, Count: 3},
			"43504d58" + "02" + "12" + "0400" + "63617231" + state + reserved +
				"80841e0000000000" + "03000000" + "0000000000000000" + "00000000",
		},
		{
			Message{Type: MsgFuseReply, Count: 2, Seq: 1},
			"43504d58" + "02" + "13" + "0000" + zeroState + reserved +
				"0000000000000000" + "02000000" + "0100000000000000" + "00000000",
		},
		{
			Message{Type: MsgFeatureFrame, Sender: "car3", State: st, Seq: 4, Payload: []byte("CPF3")},
			"43504d58" + "03" + "18" + "0400" + "63617233" + state + reserved +
				"0000000000000000" + "00000000" + "0400000000000000" + "04000000" + "43504633",
		},
		{
			Message{Type: MsgDeltaFrame, Sender: "car4", State: st, Seq: 9, Payload: []byte("CPD1")},
			"43504d58" + "03" + "1a" + "0400" + "63617234" + state + reserved +
				"0000000000000000" + "00000000" + "0900000000000000" + "04000000" + "43504431",
		},
	}
	for _, tc := range tests {
		got, err := EncodeMessage(tc.msg)
		if err != nil {
			t.Fatalf("type %d: %v", tc.msg.Type, err)
		}
		if h := hex.EncodeToString(got); h != tc.want {
			t.Errorf("type %d encodes as\n  %s\nwant\n  %s", tc.msg.Type, h, tc.want)
		}
		back, err := DecodeMessage(got)
		if err != nil {
			t.Fatalf("type %d: decode: %v", tc.msg.Type, err)
		}
		if again, _ := EncodeMessage(back); string(again) != string(got) {
			t.Errorf("type %d: decode/encode is not the identity", tc.msg.Type)
		}
	}
}

package network

import (
	"errors"
	"testing"
	"time"

	"cooper/internal/fusion"
	"cooper/internal/geom"
)

func TestDSRCTransmitTime(t *testing.T) {
	c := DefaultDSRC()
	// 1.8 Mbit (the paper's costliest frame) at 6 Mbit/s × 0.8 ≈ 375 ms.
	d := c.TransmitTime(1800000 / 8)
	if d < 300*time.Millisecond || d > 450*time.Millisecond {
		t.Errorf("1.8 Mbit transmit time = %v", d)
	}
	// Zero bytes still pay the base latency.
	if got := c.TransmitTime(0); got != c.BaseLatency {
		t.Errorf("zero-byte transmit = %v, want %v", got, c.BaseLatency)
	}
}

func TestDSRCCanSustain(t *testing.T) {
	c := DefaultDSRC()          // 4.8 Mbit/s effective
	if !c.CanSustain(500_000) { // 4 Mbit/s
		t.Error("channel should sustain 4 Mbit/s")
	}
	if c.CanSustain(1_000_000) { // 8 Mbit/s
		t.Error("channel should not sustain 8 Mbit/s")
	}
}

func TestDSRCUtilization(t *testing.T) {
	c := DSRCChannel{DataRateMbps: 10, MACEfficiency: 1}
	if got := c.Utilization(125_000); got != 0.1 { // 1 Mbit/s of 10
		t.Errorf("utilization = %v, want 0.1", got)
	}
}

func TestMessageRoundTrip(t *testing.T) {
	m := Message{
		Type:   MsgFrame,
		Sender: "car1",
		State: fusion.VehicleState{
			GPS: geom.V3(12.5, -3.25, 0.5),
			Yaw: 0.7, Pitch: -0.01, Roll: 0.02,
			MountHeight: 1.73,
		},
		Payload: []byte{1, 2, 3, 4, 5},
	}
	enc, err := EncodeMessage(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeMessage(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != m.Type || got.Sender != m.Sender {
		t.Errorf("identity fields differ: %+v", got)
	}
	if got.State != m.State {
		t.Errorf("state = %+v, want %+v", got.State, m.State)
	}
	if string(got.Payload) != string(m.Payload) {
		t.Errorf("payload differs")
	}
}

func TestDecodeMessageErrors(t *testing.T) {
	if _, err := DecodeMessage(nil); !errors.Is(err, ErrBadMessage) {
		t.Errorf("nil: %v", err)
	}
	if _, err := DecodeMessage([]byte("XXXXXXXXXX")); !errors.Is(err, ErrBadMessage) {
		t.Errorf("garbage: %v", err)
	}
	good, _ := EncodeMessage(Message{Type: MsgFrame, Sender: "a", Payload: make([]byte, 100)})
	if _, err := DecodeMessage(good[:40]); !errors.Is(err, ErrBadMessage) {
		t.Errorf("truncated: %v", err)
	}
	// Wrong version.
	bad := append([]byte{}, good...)
	bad[4] = 9
	if _, err := DecodeMessage(bad); !errors.Is(err, ErrBadMessage) {
		t.Errorf("bad version: %v", err)
	}
	// Retired protocol v1 and types outside v2/v3 are refused both ways.
	bad[4] = 1
	if _, err := DecodeMessage(bad); !errors.Is(err, ErrBadMessage) {
		t.Errorf("version 1: %v", err)
	}
	for _, typ := range []MsgType{0, 1, 2, 3, MsgHello - 1} {
		if _, err := EncodeMessage(Message{Type: typ, Sender: "a"}); !errors.Is(err, ErrBadMessage) {
			t.Errorf("encode type %d: err = %v, want ErrBadMessage", typ, err)
		}
	}
	// A type framed under the other hub version is refused.
	bad[4] = 3
	if _, err := DecodeMessage(bad); !errors.Is(err, ErrBadMessage) {
		t.Errorf("v2 type under version 3: %v", err)
	}
	// The reserved block must stay zero.
	bad = append([]byte{}, good...)
	bad[headerFixed+1+stateSize] = 1
	if _, err := DecodeMessage(bad); !errors.Is(err, ErrBadMessage) {
		t.Errorf("nonzero reserved byte: %v", err)
	}
}

func TestTransportOverTCP(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	type result struct {
		msg Message
		err error
	}
	done := make(chan result, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			done <- result{err: err}
			return
		}
		defer conn.Close()
		msg, err := conn.Receive()
		if err != nil {
			done <- result{err: err}
			return
		}
		// Echo a response back.
		if err := conn.Send(Message{Type: MsgFrame, Sender: "server", Payload: msg.Payload}); err != nil {
			done <- result{err: err}
			return
		}
		done <- result{msg: msg}
	}()

	client, err := Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	payload := make([]byte, 50000)
	for i := range payload {
		payload[i] = byte(i)
	}
	want := Message{Type: MsgFrame, Sender: "car1", Payload: payload}
	if err := client.Send(want); err != nil {
		t.Fatal(err)
	}
	reply, err := client.Receive()
	if err != nil {
		t.Fatal(err)
	}
	if reply.Sender != "server" || len(reply.Payload) != len(payload) {
		t.Errorf("reply = %s/%d bytes", reply.Sender, len(reply.Payload))
	}

	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.msg.Sender != "car1" || len(r.msg.Payload) != len(payload) {
		t.Errorf("server got %s/%d bytes", r.msg.Sender, len(r.msg.Payload))
	}
}

func TestScheduleVolume(t *testing.T) {
	// The paper's costliest case: two cars exchanging full 16-beam frames
	// at 1 Hz, ≈1.8 Mbit per frame each ⇒ well within DSRC.
	s := ExchangeSchedule{RateHz: 1, FrameBytes: 1800000 / 8, Directions: 2}
	if got := s.MbitPerSecond(); got < 3.5 || got > 3.7 {
		t.Errorf("mutual full-frame load = %v Mbit/s", got)
	}
	if !s.FitsChannel(DefaultDSRC()) {
		t.Error("1 Hz mutual exchange should fit the 6 Mbit/s channel")
	}
	// 10 Hz full-rate exchange exceeds the default channel: the paper's
	// argument for the 1 Hz sample rate.
	fullRate := ExchangeSchedule{RateHz: 10, FrameBytes: 1800000 / 8, Directions: 2}
	if fullRate.FitsChannel(DefaultDSRC()) {
		t.Error("10 Hz mutual exchange should exceed the 6 Mbit/s channel")
	}
}

func TestScheduleSeries(t *testing.T) {
	s := ExchangeSchedule{RateHz: 1, FrameBytes: 125000, Directions: 1}
	series := s.VolumeSeries(8)
	if len(series) != 8 {
		t.Fatalf("series length %d", len(series))
	}
	for _, v := range series {
		if v != 1.0 { // 125000 B = 1 Mbit
			t.Errorf("per-second volume = %v, want 1", v)
		}
	}
}

func TestScheduleFrameLatency(t *testing.T) {
	s := ExchangeSchedule{RateHz: 1, FrameBytes: 125000, Directions: 1}
	c := DSRCChannel{DataRateMbps: 10, MACEfficiency: 1, BaseLatency: 0}
	if got := s.FrameLatency(c); got != 100*time.Millisecond {
		t.Errorf("frame latency = %v, want 100ms", got)
	}
}

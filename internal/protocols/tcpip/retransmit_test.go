package tcpip

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/protocols/features"
	"repro/internal/protocols/wire"
	"repro/internal/xkernel"
)

// TestFastRetransmitOnDupAcks feeds three duplicate pure ACKs to a
// connection with outstanding data and expects exactly one immediate
// retransmission, counted against the abort cap.
func TestFastRetransmitOnDupAcks(t *testing.T) {
	client, server, q := newPair(t, features.Improved(), false, 2)
	runToCompletion(t, client, server, q, 10000)
	c := client.Test.Conn
	tcp := client.TCP

	// Fabricate outstanding data (the transmitted frame stays queued on
	// the link; we never run the queue again).
	if err := c.Send([]byte("outstanding")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if c.sndUna == c.sndNxt {
		t.Fatal("no data outstanding after Send")
	}
	segsOut := tcp.SegsOut

	h := &wire.TCPHeader{
		SrcPort: c.RemotePort, DstPort: c.LocalPort,
		Seq: c.rcvNxt, Ack: c.sndUna,
		Flags: wire.TCPFlagACK, Window: defaultRcvWnd,
	}
	dupAck := func() {
		if err := tcp.input(c, h, xkernel.NewMsgData(client.Host.Alloc, nil)); err != nil {
			t.Fatalf("input: %v", err)
		}
	}

	dupAck()
	dupAck()
	if tcp.FastRetransmits != 0 {
		t.Fatalf("fast retransmit fired after %d dup ACKs; threshold is %d", c.dupAcks, tcpDupAckThreshold)
	}
	dupAck()
	if tcp.FastRetransmits != 1 {
		t.Fatalf("FastRetransmits = %d after third dup ACK, want 1", tcp.FastRetransmits)
	}
	if tcp.SegsOut != segsOut+1 {
		t.Fatalf("SegsOut advanced by %d, want exactly the one resent segment", tcp.SegsOut-segsOut)
	}
	if c.retries == 0 {
		t.Fatal("fast retransmit left retries at 0; it must count against the abort cap")
	}
	// A fourth duplicate must not re-trigger.
	dupAck()
	if tcp.FastRetransmits != 1 {
		t.Fatalf("FastRetransmits = %d after fourth dup ACK, want still 1", tcp.FastRetransmits)
	}
}

// TestRTODoublesPerTimeoutAndResetsOnAck pins TCP's historical
// retransmission timer: 200 ms to start, doubled on every timeout, and
// back to 200 ms once an ACK covers the outstanding data.
func TestRTODoublesPerTimeoutAndResetsOnAck(t *testing.T) {
	const ms200 = 200_000 * netsim.CyclesPerMicrosecond
	client, server, q := newPair(t, features.Improved(), false, 2)
	runToCompletion(t, client, server, q, 10000)
	c := client.Test.Conn
	tcp := client.TCP
	if c.rto != ms200 {
		t.Fatalf("RTO after a clean run = %d cycles, want 200 ms (%d)", c.rto, ms200)
	}

	// Outstanding data; its frame stays queued, the queue never runs again.
	if err := c.Send([]byte("outstanding")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	for i := 1; i <= 3; i++ {
		tcp.retransmit(c)
		if want := uint64(ms200) << i; c.rto != want {
			t.Fatalf("RTO after %d timeouts = %d cycles, want %d", i, c.rto, want)
		}
	}

	ack := &wire.TCPHeader{
		SrcPort: c.RemotePort, DstPort: c.LocalPort,
		Seq: c.rcvNxt, Ack: c.sndNxt,
		Flags: wire.TCPFlagACK, Window: defaultRcvWnd,
	}
	if err := tcp.input(c, ack, xkernel.NewMsgData(client.Host.Alloc, nil)); err != nil {
		t.Fatalf("input: %v", err)
	}
	if c.rto != ms200 {
		t.Fatalf("RTO after the covering ACK = %d cycles, want 200 ms (%d)", c.rto, ms200)
	}
}

package rpc

import (
	"bytes"
	"testing"

	"repro/internal/arch"
	"repro/internal/code"
	"repro/internal/lance"
	"repro/internal/models"
	"repro/internal/netsim"
	"repro/internal/protocols/features"
	"repro/internal/protocols/wire"
	"repro/internal/sim/cpu"
	"repro/internal/sim/mem"
	"repro/internal/xkernel"
)

var (
	clientMAC  = wire.MACAddr{0x08, 0x00, 0x2b, 0x11, 0x12, 0x13}
	serverMAC  = wire.MACAddr{0x08, 0x00, 0x2b, 0x14, 0x15, 0x16}
	clientAddr = wire.IPAddr(0x0a000001)
	serverAddr = wire.IPAddr(0x0a000002)
)

func buildProgram(t *testing.T, feat features.Set) *code.Program {
	t.Helper()
	p := code.NewProgram()
	p.MustAdd(models.Library(feat.RefreshShortCircuit)...)
	p.MustAdd(lance.Models("eth_demux", feat.UseUSC)...)
	p.MustAdd(Models(feat)...)
	if err := p.Link(); err != nil {
		t.Fatalf("Link: %v", err)
	}
	return p
}

func newPair(t *testing.T, feat features.Set, withModels bool, calls int) (*Stack, *Stack, *xkernel.EventQueue) {
	t.Helper()
	q := xkernel.NewEventQueue()
	link := netsim.NewLink(q)
	mkHost := func(name string) *xkernel.Host {
		h := mem.New(arch.DEC3000_600())
		c := cpu.New(h)
		var eng *code.Engine
		if withModels {
			eng = code.NewEngine(c, buildProgram(t, feat))
		}
		return xkernel.NewHost(name, c, h, eng, q, 0)
	}
	client := Build(mkHost("client"), link, clientMAC, clientAddr, serverAddr, feat, false, calls)
	server := Build(mkHost("server"), link, serverMAC, serverAddr, clientAddr, feat, true, 0)
	Connect(client, server)
	return client, server, q
}

func runRPC(t *testing.T, client *Stack, q *xkernel.EventQueue, steps int) {
	t.Helper()
	client.Test.Start()
	q.Run(steps)
	if !client.Test.Done() {
		t.Fatalf("RPC incomplete: %d/%d calls", client.Test.Completed, client.Test.WantCalls)
	}
}

func TestZeroSizedRPCPingPong(t *testing.T) {
	client, server, q := newPair(t, features.Improved(), false, 50)
	runRPC(t, client, q, 20000)
	if server.Test.ServerCalls != 50 {
		t.Fatalf("server handled %d calls, want 50", server.Test.ServerCalls)
	}
	if client.Chan.Retransmits != 0 {
		t.Fatalf("%d spurious retransmits", client.Chan.Retransmits)
	}
	if client.Blast.SingleFrag != client.Blast.FragsOut {
		t.Fatal("zero-sized calls must ride single fragments")
	}
}

func TestRPCRequestRetransmitOnLoss(t *testing.T) {
	client, server, q := newPair(t, features.Improved(), false, 10)
	link := client.Dev.Link
	n := 0
	link.Drop = func(frame []byte) bool {
		n++
		return n == 3 // lose one request in flight
	}
	client.Test.Start()
	q.Run(100000)
	if !client.Test.Done() {
		t.Fatalf("incomplete after loss: %d/%d", client.Test.Completed, client.Test.WantCalls)
	}
	if client.Chan.Retransmits == 0 {
		t.Fatal("lost request did not retransmit")
	}
	// The duplicate-suppression cache must have absorbed any replayed
	// request without re-running the handler more than once per call...
	if server.Test.ServerCalls < 10 {
		t.Fatalf("server ran %d handlers, want >= 10", server.Test.ServerCalls)
	}
}

func TestRPCDuplicateRequestSuppressed(t *testing.T) {
	client, server, q := newPair(t, features.Improved(), false, 5)
	link := client.Dev.Link
	// Lose a *reply*: the client retransmits the request; the server must
	// answer from the reply cache without re-executing the handler.
	n := 0
	link.Drop = func(frame []byte) bool {
		n++
		return n == 4 // first reply
	}
	client.Test.Start()
	q.Run(100000)
	if !client.Test.Done() {
		t.Fatalf("incomplete: %d/%d", client.Test.Completed, client.Test.WantCalls)
	}
	if server.Chan.DupRequests == 0 {
		t.Fatal("retransmitted request was not detected as duplicate")
	}
	if server.Test.ServerCalls != 5 {
		t.Fatalf("handler ran %d times, want exactly 5 (at-most-once)", server.Test.ServerCalls)
	}
}

func TestBlastFragmentationAndNack(t *testing.T) {
	client, server, q := newPair(t, features.Improved(), false, 1)
	// Send a large message straight through BLAST.
	got := make(chan []byte, 1)
	sink := &sinkProto{fn: func(m *xkernel.Msg) { got <- append([]byte(nil), m.Bytes()...) }}
	server.Blast.Register(42, sink)

	payload := make([]byte, 5000)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	// Drop the second fragment once to force a NACK recovery.
	n := 0
	client.Dev.Link.Drop = func(frame []byte) bool {
		n++
		return n == 2
	}
	client.Host.BeginEvent(nil)
	m := xkernel.NewMsgData(client.Host.Alloc, payload)
	if err := client.Blast.Push(m, 42); err != nil {
		t.Fatal(err)
	}
	q.Run(10000)
	select {
	case data := <-got:
		if !bytes.Equal(data, payload) {
			t.Fatal("payload corrupted through fragmentation + NACK recovery")
		}
	default:
		t.Fatal("large message never delivered")
	}
	if server.Blast.Nacks == 0 || client.Blast.NackResends == 0 {
		t.Fatalf("NACK path not exercised: nacks=%d resends=%d", server.Blast.Nacks, client.Blast.NackResends)
	}
}

type sinkProto struct{ fn func(*xkernel.Msg) }

func (s *sinkProto) Name() string               { return "SINK" }
func (s *sinkProto) Demux(m *xkernel.Msg) error { s.fn(m); return nil }

func TestBidDetectsReboot(t *testing.T) {
	client, server, q := newPair(t, features.Improved(), false, 3)
	runRPC(t, client, q, 20000)
	// Simulate a client reboot: new boot id. The server must reject the
	// stale-world message.
	client.Bid.LocalBoot = 0x3333
	before := server.Bid.StaleDrops
	client.Host.BeginEvent(nil)
	m := xkernel.NewMsgData(client.Host.Alloc, []byte{1, 2, 3})
	// The client's old peer-boot knowledge makes its own stamp fresh; the
	// server detects the SrcBootID change.
	if err := client.Bid.Push(m); err != nil {
		t.Fatal(err)
	}
	q.Run(100)
	if server.Bid.StaleDrops != before+1 {
		t.Fatalf("server stale drops = %d, want %d", server.Bid.StaleDrops, before+1)
	}
}

func TestVchanPoolsChannels(t *testing.T) {
	client, _, q := newPair(t, features.Improved(), false, 20)
	runRPC(t, client, q, 20000)
	// Sequential calls reuse one pooled channel.
	if client.Vchan.MaxUsed != 1 {
		t.Fatalf("sequential calls used %d channels, want 1", client.Vchan.MaxUsed)
	}
	if len(client.Chan.channels) != 1 {
		t.Fatalf("%d channels exist, want 1", len(client.Chan.channels))
	}
}

func TestContinuationsUseOneStack(t *testing.T) {
	feat := features.Improved()
	client, _, q := newPair(t, feat, false, 20)
	runRPC(t, client, q, 20000)
	if client.Host.Threads.StacksCreated > 1 {
		t.Fatalf("continuation-based client created %d stacks, want 1", client.Host.Threads.StacksCreated)
	}

	feat.Continuations = false
	client2, _, q2 := newPair(t, feat, false, 20)
	runRPC(t, client2, q2, 20000)
	if client2.Host.Threads.StacksCreated < 2 {
		t.Fatalf("blocking client created %d stacks; expected the blocked call to pin one", client2.Host.Threads.StacksCreated)
	}
}

func TestRPCWithModels(t *testing.T) {
	client, server, q := newPair(t, features.Improved(), true, 30)
	runRPC(t, client, q, 30000)
	cm := client.Host.CPU.Metrics()
	if cm.Instructions == 0 {
		t.Fatal("no modeled instructions executed")
	}
	st := client.Test.Stamps
	if len(st) < 10 {
		t.Fatalf("stamps: %d", len(st))
	}
	rtt := float64(st[len(st)-1]-st[len(st)-2]) / netsim.CyclesPerMicrosecond
	if rtt < 210 || rtt > 1200 {
		t.Fatalf("RPC roundtrip %v us implausible", rtt)
	}
	_ = server
}

func TestRPCModelsDeterministic(t *testing.T) {
	run := func() (cpu.Metrics, uint64) {
		client, _, q := newPair(t, features.Improved(), true, 15)
		runRPC(t, client, q, 30000)
		return client.Host.CPU.Metrics(), q.Now()
	}
	m1, t1 := run()
	m2, t2 := run()
	if m1 != m2 || t1 != t2 {
		t.Fatalf("non-deterministic: %v@%d vs %v@%d", m1, t1, m2, t2)
	}
}

func TestRPCDeeperThanTCPIP(t *testing.T) {
	client, _, _ := newPair(t, features.Improved(), false, 1)
	nodes := client.Host.Graph.Nodes()
	want := []string{"LANCE", "ETH", "VNET", "BLAST", "BID", "CHAN", "VCHAN", "MSELECT", "XRPCTEST"}
	for _, w := range want {
		found := false
		for _, n := range nodes {
			if n == w {
				found = true
			}
		}
		if !found {
			t.Fatalf("missing %s in graph %v", w, nodes)
		}
	}
}

func TestChanRetransmitsUntilServerAnswers(t *testing.T) {
	client, server, q := newPair(t, features.Improved(), false, 1)
	// Kill every frame for a while: the request must keep retransmitting,
	// then complete when the link heals.
	dead := true
	client.Dev.Link.Drop = func(frame []byte) bool { return dead }
	client.Test.Start()
	// Let several retransmission timeouts elapse.
	q.RunUntil(q.Now() + 450_000*netsim.CyclesPerMicrosecond)
	if client.Test.Done() {
		t.Fatal("call completed through a dead link")
	}
	// A constant 100 ms timer fires at 100, 200, 300 and 400 ms; a
	// backing-off one would have fired only twice by 450 ms.
	if client.Chan.Retransmits != 4 {
		t.Fatalf("%d retransmits in 450 ms of dead link, want 4 (constant 100 ms timer)", client.Chan.Retransmits)
	}
	dead = false
	q.Run(100000)
	if !client.Test.Done() {
		t.Fatalf("call never completed after the link healed: %d retransmits", client.Chan.Retransmits)
	}
	if server.Test.ServerCalls != 1 {
		t.Fatalf("handler ran %d times, want exactly 1", server.Test.ServerCalls)
	}
}

func TestRPCHeaderStackDepth(t *testing.T) {
	// A zero-payload call must ride a minimum-size Ethernet frame: the
	// whole six-protocol header stack fits in 60 bytes.
	client, _, q := newPair(t, features.Improved(), false, 2)
	maxFrame := 0
	client.Dev.Link.Drop = func(frame []byte) bool {
		if len(frame) > maxFrame {
			maxFrame = len(frame)
		}
		return false
	}
	runRPC(t, client, q, 20000)
	if maxFrame != wire.EthMinFrame {
		t.Fatalf("zero-payload RPC rode %d-byte frames, want %d", maxFrame, wire.EthMinFrame)
	}
}

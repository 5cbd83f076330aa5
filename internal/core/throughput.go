package core

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/code"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/protocols/tcpip"
	"repro/internal/protocols/wire"
	"repro/internal/sim/cpu"
	"repro/internal/sim/mem"
	"repro/internal/xkernel"
)

// ThroughputResult reports a bulk-transfer measurement.
type ThroughputResult struct {
	Version  Version
	Segments int
	Bytes    int
	// MBps is the achieved goodput in megabytes per second of virtual
	// time.
	MBps float64
}

// tputApp is the ack-clocked bulk sender/sink above TCP.
type tputApp struct {
	host     *xkernel.Host
	payload  []byte
	want     int
	sent     int
	received int
	done     func()
	sink     bool
	start    uint64
	end      uint64
}

func (a *tputApp) Established(c *TCBAlias) {
	if a.sink {
		return
	}
	a.start = a.host.Queue.Now()
	c.OnAcked = func() {
		a.sent++
		if a.sent < a.want {
			_ = c.Send(a.payload)
			return
		}
		a.end = a.host.Queue.Now()
		if a.done != nil {
			a.done()
		}
	}
	_ = c.Send(a.payload)
}

func (a *tputApp) Deliver(c *TCBAlias, data []byte) {
	a.received += len(data)
}

// TCBAlias keeps the tcpip dependency local to this file's signatures.
type TCBAlias = tcpip.TCB

// Throughput streams segments of the given payload size through the TCP
// stack built in the given version and measures goodput. On the paper's
// 10 Mb/s Ethernet the wire dominates, which is exactly the claim being
// verified: the latency techniques do not hurt throughput.
func Throughput(v Version, segments, payloadBytes int) (ThroughputResult, error) {
	if payloadBytes <= 0 || payloadBytes > 1400 {
		payloadBytes = 1400
	}
	m := arch.DEC3000_600()
	feat := DefaultConfig(StackTCPIP, v).Feat
	clientProg, err := BuildProgram(StackTCPIP, v, feat, Bipartite, m)
	if err != nil {
		return ThroughputResult{}, err
	}
	serverProg, err := BuildProgram(StackTCPIP, v, feat, Bipartite, m)
	if err != nil {
		return ThroughputResult{}, err
	}

	q := xkernel.NewEventQueue()
	link := netsim.NewLink(q)
	mkHost := func(name string, prog *code.Program, perturb uint64) *xkernel.Host {
		hm := mem.New(m)
		c := cpu.New(hm)
		return xkernel.NewHost(name, c, hm, code.NewEngine(c, prog), q, perturb)
	}
	ch := mkHost("client", clientProg, 0)
	sh := mkHost("server", serverProg, 7)

	client := tcpip.Build(ch, link, wire.MACAddr{8, 0, 0x2b, 1, 1, 1}, 0xc0a80001, feat, false, 1)
	server := tcpip.Build(sh, link, wire.MACAddr{8, 0, 0x2b, 2, 2, 2}, 0xc0a80002, feat, true, 0)
	tcpip.Connect(client, server)

	payload := make([]byte, payloadBytes)
	for i := range payload {
		payload[i] = byte(i)
	}
	sender := &tputApp{host: ch, payload: payload, want: segments}
	sink := &tputApp{host: sh, sink: true}
	server.TCP.Listen(4000, sink)

	ch.BeginEvent(nil)
	ch.SetStack(ch.Threads.AcquireStack())
	client.TCP.Open(4001, 4000, server.IP.Local, sender)
	q.Run(5_000_000)

	if sender.sent < segments {
		return ThroughputResult{}, fmt.Errorf("core: throughput run stalled at %d/%d segments", sender.sent, segments)
	}
	if sink.received != segments*payloadBytes {
		return ThroughputResult{}, fmt.Errorf("core: sink received %d bytes, want %d", sink.received, segments*payloadBytes)
	}
	elapsedUS := float64(sender.end-sender.start) / m.CyclesPerMicrosecond()
	bytes := segments * payloadBytes
	return ThroughputResult{
		Version:  v,
		Segments: segments,
		Bytes:    bytes,
		MBps:     float64(bytes) / elapsedUS, // bytes per µs == MB/s
	}, nil
}

// ThroughputTable verifies the §4.1 claim across all versions, one row
// per version.
func ThroughputTable(segments, payloadBytes int) (obs.Table, error) {
	t := obs.Table{Name: "throughput", Title: "Throughput check: bulk TCP transfer (ack-clocked, stop-and-wait)",
		Columns: []string{"version", "mb_per_s"}}
	for _, v := range Versions() {
		r, err := Throughput(v, segments, payloadBytes)
		if err != nil {
			return obs.Table{}, fmt.Errorf("%v: %w", v, err)
		}
		t.Rows = append(t.Rows, []string{v.String(), fmt.Sprintf("%.3f", r.MBps)})
	}
	return t, nil
}

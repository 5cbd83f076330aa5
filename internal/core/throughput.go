package core

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/protocols/tcpip"
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
	cfg := DefaultConfig(StackTCPIP, v)
	hp, err := buildPair(cfg, 0, 1)
	if err != nil {
		return ThroughputResult{}, err
	}
	ch, client, server := hp.clientHost, hp.tcp[0], hp.tcp[1]

	payload := make([]byte, payloadBytes)
	for i := range payload {
		payload[i] = byte(i)
	}
	sender := &tputApp{host: ch, payload: payload, want: segments}
	sink := &tputApp{host: hp.serverHost, sink: true}
	server.TCP.Listen(4000, sink)

	ch.BeginEvent(nil)
	ch.SetStack(ch.Threads.AcquireStack())
	client.TCP.Open(4001, 4000, server.IP.Local, sender)
	hp.q.Run(5_000_000)
	hp.release()

	if sender.sent < segments {
		return ThroughputResult{}, fmt.Errorf("core: throughput run stalled at %d/%d segments", sender.sent, segments)
	}
	if sink.received != segments*payloadBytes {
		return ThroughputResult{}, fmt.Errorf("core: sink received %d bytes, want %d", sink.received, segments*payloadBytes)
	}
	elapsedUS := float64(sender.end-sender.start) / cfg.machine().CyclesPerMicrosecond()
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

package core

import (
	"fmt"

	"repro/internal/sim/cpu"
)

// xkernelCounts holds the live x-kernel measurements for Table 3.
type xkernelCounts struct {
	IPToTCP     int
	TCPToSocket int
	CPI         float64
}

// measureXKernelRegions runs the improved x-kernel TCP/IP stack (STD
// layout) and counts the dynamic instructions between the points Table 3
// defines: from entering IP (ipDemux) to entering TCP (tcpDemux), and from
// entering TCP to delivery above TCP (the test protocol's demux, the
// x-kernel's clientStreamDemux equivalent).
func measureXKernelRegions(q Quality) (xkernelCounts, error) {
	cfg := q.Apply(DefaultConfig(StackTCPIP, STD))
	roundtrips := cfg.Warmup + cfg.Measured
	hp, err := buildPair(cfg, 0, roundtrips)
	if err != nil {
		return xkernelCounts{}, err
	}
	prog := hp.clientProg
	ipEntry, ok1 := prog.EntryAddr("ip_demux")
	tcpEntry, ok2 := prog.EntryAddr("tcp_demux")
	sockEntry, ok3 := prog.EntryAddr("tcptest_demux")
	if !ok1 || !ok2 || !ok3 {
		return xkernelCounts{}, fmt.Errorf("core: path entries not placed")
	}

	var counts xkernelCounts
	var startMetrics cpu.Metrics
	ch := hp.clientHost
	phase := 0 // 0: before IP, 1: IP->TCP, 2: TCP->socket, 3: done
	hp.onRoundtrip(func(n int) {
		switch n {
		case roundtrips - 2:
			ch.Mem.BeginEpoch()
			startMetrics = ch.CPU.Metrics()
			phase = 0
			ch.Engine.Observer = func(e cpu.Entry) {
				switch e.Addr {
				case ipEntry:
					if phase == 0 {
						phase = 1
					}
				case tcpEntry:
					if phase == 1 {
						phase = 2
					}
				case sockEntry:
					if phase == 2 {
						phase = 3
					}
				}
				switch phase {
				case 1:
					counts.IPToTCP++
				case 2:
					counts.TCPToSocket++
				}
			}
		case roundtrips - 1:
			counts.CPI = ch.CPU.Metrics().Sub(startMetrics).CPI()
			ch.Engine.Observer = nil
		}
	})
	hp.startFn()
	if err := hp.finishRun(cfg, 0, roundtrips); err != nil {
		return xkernelCounts{}, fmt.Errorf("core: table 3 run: %w", err)
	}
	hp.release()
	return counts, nil
}

package main

import (
	"fmt"
	"io"

	"repro/internal/arch"
	"repro/internal/code"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/protocols/rpc"
	"repro/internal/protocols/tcpip"
	"repro/internal/protocols/wire"
	"repro/internal/sim/cpu"
	"repro/internal/sim/mem"
	"repro/internal/xkernel"
)

// replicaSample re-creates sample i of a fault-free cfg on the DEC 3000/600
// from the layers' public constructors, the way the experiment runner
// builds a host pair, and runs it to the end. It returns the instructions
// both simulated CPUs executed and the events the queue ran, which the
// runner does not expose, plus the sample's end-to-end latency: that must
// equal the runner's, showing the replica is the same simulation.
func replicaSample(cfg core.Config, i int) (instrs, events uint64, teUS float64, err error) {
	m := arch.DEC3000_600()
	clientProg, err := core.BuildProgram(cfg.Stack, cfg.Version, cfg.Feat, cfg.Strategy, m)
	if err != nil {
		return 0, 0, 0, err
	}
	serverVersion := cfg.Version
	if cfg.Stack == core.StackRPC {
		serverVersion = core.ALL
	}
	serverProg, err := core.BuildProgram(cfg.Stack, serverVersion, cfg.Feat, cfg.Strategy, m)
	if err != nil {
		return 0, 0, 0, err
	}
	q := xkernel.NewEventQueue()
	link := netsim.NewLink(q)
	host := func(name string, prog *code.Program, perturb uint64) *xkernel.Host {
		h := mem.NewPooled(m)
		c := cpu.New(h)
		return xkernel.NewHost(name, c, h, code.NewEngine(c, prog), q, perturb)
	}
	ch := host("client", clientProg, uint64(i)*17)
	sh := host("server", serverProg, uint64(i)*31+7)
	defer ch.Mem.Release()
	defer sh.Mem.Release()

	roundtrips := cfg.Warmup + cfg.Measured
	clientMAC, serverMAC := wire.MACAddr{8, 0, 0x2b, 1, 1, 1}, wire.MACAddr{8, 0, 0x2b, 2, 2, 2}
	var stamps func() []uint64
	if cfg.Stack == core.StackRPC {
		client := rpc.Build(ch, link, clientMAC, 0x0a000001, 0x0a000002, cfg.Feat, false, roundtrips)
		server := rpc.Build(sh, link, serverMAC, 0x0a000002, 0x0a000001, cfg.Feat, true, 0)
		rpc.Connect(client, server)
		stamps = func() []uint64 { return client.Test.Stamps }
		client.Test.Start()
	} else {
		client := tcpip.Build(ch, link, clientMAC, 0xc0a80001, cfg.Feat, false, roundtrips)
		server := tcpip.Build(sh, link, serverMAC, 0xc0a80002, cfg.Feat, true, 0)
		tcpip.Connect(client, server)
		stamps = func() []uint64 { return client.Test.Stamps }
		client.StartClient(server)
	}
	for events < core.DefaultEventBudget && q.RunNext() {
		events++
	}
	st := stamps()
	if len(st) < roundtrips {
		return 0, 0, 0, fmt.Errorf("replica of %v/%v stalled at %d/%d roundtrips", cfg.Stack, cfg.Version, len(st), roundtrips)
	}
	teUS = float64(st[roundtrips-1]-st[cfg.Warmup-1]) / float64(cfg.Measured) / m.CyclesPerMicrosecond()
	instrs = ch.CPU.Metrics().Instructions + sh.CPU.Metrics().Instructions
	return instrs, events, teUS, nil
}

// reconcile prints how the layer figures add up to the end-to-end ones.
// opMS is the median untraced operation time of this run's workload.
func (p *probes) reconcile(w io.Writer, workload string, opMS float64) {
	v := p.v
	row := func(what string, ms float64, how string) {
		fmt.Fprintf(w, "| %s | %.2f | %.0f%% | %s |\n", what, ms, 100*ms/v["core.sweep_serial_ms"], how)
	}
	fmt.Fprintf(w, "\n## Reconciliation (traced run, workload %s)\n\n", workload)
	fmt.Fprintln(w, "Table-4 sweep at pool width 1, by layer:")
	fmt.Fprintln(w, "\n| part | ms | share | from |")
	fmt.Fprintln(w, "|---|---:|---:|---|")
	instrs, events := v["core.sweep_instrs"], v["core.sweep_events"]
	simMS := instrs * v["cpu.step_ns.dec3000"] / 1e6
	engMS := instrs * v["code.engine_ns_per_instr"] / 1e6
	evMS := events * v["xkernel.event_ns"] / 1e6
	row("sweep, measured", v["core.sweep_serial_ms"], "core.sweep_serial_ms")
	row("cpu + mem", simMS, fmt.Sprintf("%.0f instrs × cpu.step_ns.dec3000", instrs))
	row("engine self", engMS, "instrs × code.engine_ns_per_instr")
	row("event queue", evMS, fmt.Sprintf("%.0f events × xkernel.event_ns", events))
	row("residual: protocols, glue", v["core.sweep_serial_ms"]-simMS-engMS-evMS, "the rest")

	fmt.Fprintln(w, "\nOne sample at pool width 1:")
	fmt.Fprintln(w, "\n| config | instrs | instrs × cpu.step_ns ms | core.sample_ms | residual share |")
	fmt.Fprintln(w, "|---|---:|---:|---:|---:|")
	for _, c := range []string{"tcpip.STD", "tcpip.ALL", "rpc.ALL"} {
		in, ms := v["core.sample_instrs."+c], v["core.sample_ms."+c]
		sim := in * v["cpu.step_ns.dec3000"] / 1e6
		fmt.Fprintf(w, "| %s | %.0f | %.2f | %.2f | %.0f%% |\n", c, in, sim, ms, 100*(1-sim/ms))
	}

	nproc := float64(core.Parallelism())
	fmt.Fprintln(w, "\nEnd to end:")
	fmt.Fprintln(w, "\n| quantity | value |")
	fmt.Fprintln(w, "|---|---:|")
	fmt.Fprintf(w, "| table4 op predicted: sweep_serial_ms / pool width %.0f | %.2f ms |\n", nproc, v["core.sweep_serial_ms"]/nproc)
	fmt.Fprintf(w, "| table4 op measured at width %.0f: sweep_serial_ms / core.pool_speedup | %.2f ms |\n", nproc, v["core.sweep_serial_ms"]/v["core.pool_speedup"])
	// Each stack runs every version at quick quality; a TCP/IP sample is
	// taken to cost the mean of its STD and ALL samples.
	perStack := float64(len(core.Versions()) * core.Quick.Samples)
	fromSamples := perStack*(v["core.sample_ms.tcpip.STD"]+v["core.sample_ms.tcpip.ALL"])/2 + perStack*v["core.sample_ms.rpc.ALL"]
	fmt.Fprintf(w, "| table4 op from samples: %.0f per stack × core.sample_ms / core.pool_speedup | %.2f ms |\n", perStack, fromSamples/v["core.pool_speedup"])
	fmt.Fprintf(w, "| BenchmarkRunParallel shape at width 1 (145 ms/op in EXPERIMENTS.md, on another host) | %.2f ms |\n", v["core.runparallel_sweep_ms"])
	step := v["optimize.step_us"]
	fmt.Fprintf(w, "| optimize op: examined × step_us + fixed_ms | %.0f × %.2f us + %.1f ms = %.1f ms |\n",
		v["optimize.examined"], step, v["optimize.fixed_ms"], v["optimize.examined"]*step/1e3+v["optimize.fixed_ms"])
	perCand := v["code.clone_link_us"] + v["verify.wellformed_us"] + v["verify.equiv_us"] + v["verify.cost_us.dec3000"]
	fmt.Fprintf(w, "| one candidate: clone_link + wellformed + equiv + cost.dec3000 | %.2f us (step_us %.2f) |\n", perCand, step)
	fmt.Fprintf(w, "| daemon hit: fingerprint + store_get (serve.hit_ms_p50 %.3f ms) | %.3f ms |\n",
		v["serve.hit_ms_p50"], (v["serve.fingerprint_us"]+v["serve.store_get_us"])/1e3)
	fmt.Fprintf(w, "| this run's op_ms_p50, untraced ops; traced ops are %.1f%% slower | %.3f ms |\n",
		100*v["trace.overhead_frac"], opMS)
}

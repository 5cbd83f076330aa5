package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/machines"
	"repro/internal/obs"
	"repro/internal/optimize"
)

// loopSession is a closed loop with one caller: the next operation starts
// when the previous one has returned and been checked.
type loopSession struct {
	// op performs one operation; only it is timed.
	op func(tr *tracer, parent int) error
	// output renders the last operation's checked result: the key of its
	// reference digest, its bytes, and the work it did in the workload's
	// unit.
	output func() (key string, out []byte, work float64, err error)
	// extra derives the workload's own metrics from the measured window.
	extra func(o *outcome, opSeconds, work float64) []metric

	want map[string]string // expected digest per output key
}

// warm runs one untimed operation, so program builds and pools are ready
// before timing starts, and fixes the expected digest of its output.
func (s *loopSession) warm(refs references) error {
	if err := s.op(nil, -1); err != nil {
		return err
	}
	key, out, _, err := s.output()
	if err != nil {
		return err
	}
	s.want = map[string]string{key: refs.expect(key, out)}
	if got := digest(out); got != s.want[key] {
		return fmt.Errorf("%s: output digest %s, reference %s", key, got[:12], s.want[key][:12])
	}
	return nil
}

func (s *loopSession) close() {}

func (s *loopSession) measure(d time.Duration, tr *tracer) (*outcome, error) {
	o := &outcome{}
	var work, allocs float64
	deadline := time.Now().Add(d)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		on := tr != nil && i%2 == 0
		a0 := allocBytes()
		t0 := time.Now()
		sp := -1
		if on {
			sp = tr.begin("op", -1)
		}
		err := s.op(tr.when(on), sp)
		if on {
			tr.end(sp)
		}
		dt := time.Since(t0)
		allocs += float64(allocBytes() - a0)
		o.attempted++
		o.opMS = append(o.opMS, float64(dt)/1e6)
		o.traced = append(o.traced, on)
		if err != nil {
			o.fail("op %d: %v", i, err)
			continue
		}
		key, out, w, err := s.output()
		switch {
		case err != nil:
			o.fail("op %d: render: %v", i, err)
		case digest(out) != s.want[key]:
			o.fail("op %d: %s output differs from its reference", i, key)
		default:
			work += w
		}
	}
	n := len(o.opMS)
	opSeconds := sum(o.opMS) / 1e3
	o.metrics = append(o.metrics,
		metric{"op_ms_p50", median(o.opMS), "ms", n},
		metric{"alloc_mb_per_op", allocs / float64(n) / (1 << 20), "MB", n})
	if n >= 100 {
		o.metrics = append(o.metrics, metric{"op_ms_p90", percentile(o.opMS, 90), "ms", n})
	}
	o.metrics = append(o.metrics, s.extra(o, opSeconds, work)...)
	return o, nil
}

// table4Doc is the document the Table-4 sweep is checked by: every table
// derived from the sweep plus every sample's simulated statistics.
func table4Doc(tcp, rpc map[core.Version]*core.Result) *obs.Document {
	doc := &obs.Document{Manifest: core.NewManifest("protolat -table 4 -quality quick", 0, core.Quick)}
	doc.Tables = append(core.Table45Data(tcp, rpc),
		core.Table6Data(tcp, rpc), core.Table7Data(tcp, rpc), core.Table8Data(tcp, rpc), core.Table9Data(tcp, rpc))
	doc.Runs = append(core.RunsDoc(tcp), core.RunsDoc(rpc)...)
	return doc
}

// simRoundtrips counts the roundtrips a set of results simulated.
func simRoundtrips(rs map[core.Version]*core.Result) float64 {
	n := 0
	for _, r := range rs {
		n += len(r.Samples) * (r.Config.Warmup + r.Config.Measured)
	}
	return float64(n)
}

// table4Sweep runs the paper's Table-4 sweep: all six versions of TCP/IP,
// then of RPC, at quick quality on the DEC 3000/600.
func table4Sweep(tr *tracer, parent int, q core.Quality) (tcp, rpc map[core.Version]*core.Result, err error) {
	sp := tr.begin("core.RunVersions.tcpip", parent)
	tcp, err = core.RunVersions(core.StackTCPIP, q)
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	sp = tr.begin("core.RunVersions.rpc", parent)
	rpc, err = core.RunVersions(core.StackRPC, q)
	tr.end(sp)
	return tcp, rpc, err
}

func setupTable4(seed uint64, refs references) (session, error) {
	// The sweep's inputs are the paper's; no seed enters them.
	var tcp, rpc map[core.Version]*core.Result
	s := &loopSession{
		op: func(tr *tracer, parent int) (err error) {
			tcp, rpc, err = table4Sweep(tr, parent, core.Quick)
			return err
		},
		output: func() (string, []byte, float64, error) {
			b, err := table4Doc(tcp, rpc).Marshal()
			return "table4", b, simRoundtrips(tcp) + simRoundtrips(rpc), err
		},
		extra: func(o *outcome, opSeconds, work float64) []metric {
			return []metric{{"sim_rt_per_s", work / opSeconds, "1/s", len(o.opMS)}}
		},
	}
	return s, s.warm(refs)
}

// matrixDoc is the machine-matrix document with its seed cleared: the seed
// drives only non-zero fault rates, which the default study has none of,
// so one reference holds at every seed.
func matrixDoc(cfg core.MachineStudyConfig, cells []core.MachineCell) ([]byte, error) {
	doc := &obs.Document{Manifest: core.NewManifest("protolat -machines all -stack tcpip", 0, cfg.Quality)}
	doc.Machines = core.MachineStudyDocOf(cfg, cells)
	doc.Machines.Seed = 0
	return doc.Marshal()
}

func setupMatrix(seed uint64, refs references) (session, error) {
	cfg := core.DefaultMachineStudy(core.StackTCPIP, seed)
	var cells []core.MachineCell
	s := &loopSession{
		op: func(tr *tracer, parent int) (err error) {
			sp := tr.begin("core.MachineStudy", parent)
			cells, err = core.MachineStudy(cfg)
			tr.end(sp)
			return err
		},
		output: func() (string, []byte, float64, error) {
			b, err := matrixDoc(cfg, cells)
			rts := len(cells) * cfg.Quality.Samples * (cfg.Quality.Warmup + cfg.Quality.Measured)
			return "matrix", b, float64(rts), err
		},
		extra: func(o *outcome, opSeconds, work float64) []metric {
			return []metric{{"sim_rt_per_s", work / opSeconds, "1/s", len(o.opMS)}}
		},
	}
	return s, s.warm(refs)
}

// optimizeConfig is the layout search one optimize operation runs: the
// default budget and top-K on the DEC 3000/600.
func optimizeConfig(seed uint64) (optimize.Config, error) {
	cfg := optimize.Default(core.StackTCPIP, seed)
	models, err := machines.Select("dec3000")
	cfg.Models = models
	return cfg, err
}

func optimizeKey(seed uint64) string { return fmt.Sprintf("optimize.seed-%d", seed) }

func optimizeDoc(cfg optimize.Config, res []optimize.MachineResult) ([]byte, error) {
	doc := &obs.Document{Manifest: core.NewManifest("protolat -optimize dec3000 -stack tcpip", cfg.Seed, cfg.Quality)}
	doc.Optimize = optimize.DocOf(cfg, res)
	return doc.Marshal()
}

func setupOptimize(seed uint64, refs references) (session, error) {
	cfg, err := optimizeConfig(seed)
	if err != nil {
		return nil, err
	}
	var res []optimize.MachineResult
	s := &loopSession{
		op: func(tr *tracer, parent int) (err error) {
			sp := tr.begin("optimize.Run", parent)
			res, err = optimize.Run(cfg)
			tr.end(sp)
			return err
		},
		output: func() (string, []byte, float64, error) {
			b, err := optimizeDoc(cfg, res)
			return optimizeKey(seed), b, float64(res[0].Examined), err
		},
		extra: func(o *outcome, opSeconds, work float64) []metric {
			// The search is deterministic per seed, so the rank-1 layout's
			// simulated Tp is a quality-of-result figure, not a timing.
			n := len(o.opMS)
			return []metric{
				{"anneal_steps_per_s", work / opSeconds, "1/s", n},
				{"opt_tp_us", res[0].Candidates[0].MeasuredTpUS, "us", 1},
				{"opt_hand_tp_us", res[0].HandTpUS, "us", 1},
			}
		},
	}
	return s, s.warm(refs)
}

// referenceOutputs computes every output the reference file pins: the
// seed-free table4 and matrix documents, the optimize document at the
// default and held-out seeds, and the daemon's hot-set bodies.
func referenceOutputs() (map[string][]byte, error) {
	out := map[string][]byte{}
	tcp, rpc, err := table4Sweep(nil, -1, core.Quick)
	if err != nil {
		return nil, err
	}
	if out["table4"], err = table4Doc(tcp, rpc).Marshal(); err != nil {
		return nil, err
	}
	mcfg := core.DefaultMachineStudy(core.StackTCPIP, defaultSeed)
	cells, err := core.MachineStudy(mcfg)
	if err != nil {
		return nil, err
	}
	if out["matrix"], err = matrixDoc(mcfg, cells); err != nil {
		return nil, err
	}
	for _, seed := range []uint64{defaultSeed, workloads["optimize"].heldOut} {
		cfg, err := optimizeConfig(seed)
		if err != nil {
			return nil, err
		}
		res, err := optimize.Run(cfg)
		if err != nil {
			return nil, err
		}
		if out[optimizeKey(seed)], err = optimizeDoc(cfg, res); err != nil {
			return nil, err
		}
	}
	hot, err := hotSetBodies()
	if err != nil {
		return nil, err
	}
	for k, b := range hot {
		out[k] = b
	}
	return out, nil
}

package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"reflect"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/pipeline"
	"repro/internal/policy"
	"repro/internal/resultstore"
	"repro/internal/runahead"
	"repro/internal/scenario"
	"repro/internal/trace"
	"repro/internal/tracestore"
	"repro/internal/workload"
)

const (
	// probeCycles is how many cycles the pipeline probe steps each cell's
	// machine bare and then again while sampling occupancy.
	probeCycles = 10_000
	// probeReps is how many times each in-process serving call repeats.
	probeReps = 20
	// daemonProbeRequests is how many requests a sweep workload's daemon
	// probe sends.
	daemonProbeRequests = 12
)

// cellRun is one simulated grid cell or fairness reference.
type cellRun struct {
	w   workload.Workload
	cfg core.Config
	res *core.Result
}

// simLayers accumulates the simulator layers' numbers over a grid.
type simLayers struct {
	cells []cellRun
	runMS []float64
	genMS float64

	cycles, committed, executed, l2miss   uint64
	episodes, pseudo, raCycles, ctxCycles uint64
	regsN, regsNW, regsR, regsRW          float64

	stepNs, steps, samples          float64
	iqSum, robSum                   float64
	fetched, squashed, brRes, brMis uint64
}

// pipelinePolicy maps the benchmark's policies onto the pipeline policy
// and runahead configuration core builds for them.
func pipelinePolicy(p core.PolicyKind) (pipeline.Policy, runahead.Config, error) {
	switch p {
	case core.PolicyICount:
		return pipeline.ICount{}, runahead.Disabled(), nil
	case core.PolicySTALL:
		return policy.Stall{}, runahead.Disabled(), nil
	case core.PolicyFLUSH:
		return policy.NewFlush(), runahead.Disabled(), nil
	case core.PolicyRaT:
		return pipeline.ICount{}, runahead.Default(), nil
	}
	return nil, runahead.Config{}, fmt.Errorf("pipeline probe: no mapping for policy %q", p)
}

// simProbe re-simulates every cell of a completed sweep, and every
// fairness reference it read, with a scalar core.RunTraced and checks
// each against the session's result. With probe set it also steps a
// pipeline.Core built from each cell's traces and configuration.
func (b *bench) simProbe(ctx context.Context, s *experiments.Session, rs *scenario.ResultSet, probe bool) (*simLayers, error) {
	L := &simLayers{}
	ts := tracestore.New(tracestore.DefaultMemBytes)
	for wi, w := range rs.Workloads {
		for ci, combo := range rs.Combos {
			res, err := b.simCell(ts, w, combo.Config, probe, L)
			if err != nil {
				return nil, err
			}
			b.t.check(reflect.DeepEqual(res, rs.Result(wi, ci)),
				"cell %s %s differs from scalar core.RunTraced", w.Name(), combo.Fingerprint)
		}
	}
	seen := map[string]bool{}
	for _, w := range rs.Workloads {
		for _, combo := range rs.Combos {
			for _, bm := range w.Benchmarks {
				cfg := combo.Config
				cfg.Policy = core.PolicyICount
				key := bm + "|" + cfg.Canonical()
				if seen[key] {
					continue
				}
				seen[key] = true
				res, err := b.simCell(ts, workload.Workload{Group: "ST", Benchmarks: []string{bm}}, cfg, probe, L)
				if err != nil {
					return nil, err
				}
				ipc, err := s.ReferenceCtx(ctx, bm, combo.Config)
				b.t.check(err == nil && ipc == res.Threads[0].IPC,
					"reference %s %s: session IPC %v (err %v), scalar %v", bm, combo.Fingerprint, ipc, err, res.Threads[0].IPC)
			}
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	return L, nil
}

// simCell materializes one cell's traces, simulates it and, with probe
// set, steps the pipeline probe on the same traces.
func (b *bench) simCell(ts *tracestore.Store, w workload.Workload, cfg core.Config, probe bool, L *simLayers) (*core.Result, error) {
	req := len(L.cells)
	root := b.rec.begin("cell", -1, req)
	defer b.rec.end(root)

	gen0 := ts.Generated()
	id := b.rec.begin("workload.traces", root, req)
	t := time.Now()
	traces, err := w.TracesVia(ts, cfg.TraceLen, cfg.Seed)
	d := time.Since(t)
	if ts.Generated() > gen0 {
		L.genMS += ms(d)
		b.rec.endAs(id, "trace.generate")
	} else {
		b.rec.endAs(id, "tracestore.hit")
	}
	if err != nil {
		return nil, err
	}

	var res *core.Result
	d = b.rec.timed("core.run", root, req, func() { res, err = core.RunTraced(cfg, w, ts) })
	if err != nil {
		return nil, fmt.Errorf("core.RunTraced %s: %w", w.Name(), err)
	}
	L.runMS = append(L.runMS, ms(d))
	L.cells = append(L.cells, cellRun{w: w, cfg: cfg, res: res})
	L.cycles += res.Cycles
	L.committed += res.CommittedTotal
	L.executed += res.ExecutedTotal
	for _, tr := range res.Threads {
		L.l2miss += tr.L2MissLoads
		L.episodes += tr.RunaheadEpisodes
		L.pseudo += tr.PseudoRetired
		L.raCycles += tr.CyclesInRunahead
		L.ctxCycles += res.Cycles
		normal := float64(res.Cycles - min(tr.CyclesInRunahead, res.Cycles))
		L.regsN += tr.RegsNormal * normal
		L.regsNW += normal
		L.regsR += tr.RegsRunahead * float64(tr.CyclesInRunahead)
		L.regsRW += float64(tr.CyclesInRunahead)
	}
	if !probe {
		return res, nil
	}
	id = b.rec.begin("pipeline.probe", root, req)
	defer b.rec.end(id)
	return res, stepProbe(cfg, traces, L)
}

// stepProbe builds the cell's machine with pipeline.New, times
// probeCycles bare Core.Step calls, then steps as many again sampling
// issue-queue and ROB occupancy every cycle.
func stepProbe(cfg core.Config, traces []*trace.Trace, L *simLayers) error {
	pol, ra, err := pipelinePolicy(cfg.Policy)
	if err != nil {
		return err
	}
	pcfg := cfg.Pipeline
	pcfg.Runahead = ra
	c, err := pipeline.New(pcfg, traces, pol)
	if err != nil {
		return err
	}
	c.WarmupCaches()
	n := c.NumThreads()
	before := make([]pipeline.ThreadStats, n)
	for tid := range before {
		before[tid] = *c.Stats(tid)
	}
	t := time.Now()
	for i := 0; i < probeCycles; i++ {
		c.Step()
	}
	L.stepNs += float64(time.Since(t).Nanoseconds())
	L.steps += probeCycles
	kinds := []pipeline.IQKind{pipeline.IQInt, pipeline.IQFP, pipeline.IQLS}
	for i := 0; i < probeCycles; i++ {
		c.Step()
		L.robSum += float64(c.ROBUsed())
		for tid := 0; tid < n; tid++ {
			for _, k := range kinds {
				L.iqSum += float64(c.IQHeld(tid, k))
			}
		}
	}
	L.samples += probeCycles
	for tid := range before {
		a, p := c.Stats(tid), &before[tid]
		L.fetched += a.Fetched.Value() - p.Fetched.Value()
		L.squashed += a.Squashed.Value() - p.Squashed.Value()
		L.brRes += a.BranchResolved.Value() - p.BranchResolved.Value()
		L.brMis += a.BranchMispredicted.Value() - p.BranchMispredicted.Value()
	}
	return nil
}

// simMetrics reports the simulator layers. sweepMS is the wall time of a
// cold in-process sweep of the same grid; ts is that sweep's trace tier.
func (b *bench) simMetrics(L *simLayers, sweepMS float64, ts tracestore.Stats) {
	run := sum(L.runMS)
	b.set("pipeline.step_ns", "ns", ratio(L.stepNs, L.steps))
	b.set("pipeline.iq_occupancy", "entries", ratio(L.iqSum, L.samples))
	b.set("pipeline.rob_occupancy", "entries", ratio(L.robSum, L.samples))
	b.set("pipeline.useful_ratio", "ratio", ratio(float64(L.committed), float64(L.executed)))
	b.set("pipeline.squash_ratio", "ratio", ratio(float64(L.squashed), float64(L.fetched)))
	b.set("core.cells", "count", float64(len(L.cells)))
	b.set("core.run_ms", "ms", median(L.runMS))
	b.set("core.host_ns_per_sim_cycle", "ns", ratio(run*1e6, float64(L.cycles)))
	b.set("core.sim_cycles", "count", float64(L.cycles))
	b.set("core.committed_insts", "count", float64(L.committed))
	b.set("core.minst_per_s", "Minst/s", ratio(float64(L.committed)/1e6, run/1e3))
	b.set("runahead.episodes", "count", float64(L.episodes))
	b.set("runahead.pseudo_retired", "count", float64(L.pseudo))
	b.set("runahead.cycle_share", "ratio", ratio(float64(L.raCycles), float64(L.ctxCycles)))
	b.set("mem.l2_mpki", "mpki", ratio(1000*float64(L.l2miss), float64(L.committed)))
	b.set("bpred.mispredict_rate", "ratio", ratio(float64(L.brMis), float64(L.brRes)))
	b.set("regfile.occupancy_normal", "regs", ratio(L.regsN, L.regsNW))
	b.set("regfile.occupancy_runahead", "regs", ratio(L.regsR, L.regsRW))
	b.set("trace.generate_ms", "ms", L.genMS)
	b.set("tracestore.generated", "count", float64(ts.Generated))
	b.set("tracestore.hit_ratio", "ratio", ratio(float64(ts.Hits), float64(ts.Hits+ts.Misses)))
	b.set("experiments.overhead_ms", "ms", sweepMS-run-L.genMS)
	note("simulated %d cells: sum core.run %.1f ms, trace generation %.1f ms, cold sweep %.1f ms",
		len(L.cells), run, L.genMS, sweepMS)
}

// inproc holds the medians of the in-process replay of one request.
type inproc struct {
	parseUS, executeMS, encodeUS float64
}

// serveProbe replays the request in process: scenario.Parse, workload
// selection and grid expansion, Session.RunScenarioCtx on exec, and
// ResultSet.Emit in the workload's format, each probeReps times. It also
// times a simcache hit per cell on warm.
func (b *bench) serveProbe(ctx context.Context, warm, exec *experiments.Session, want []byte) (inproc, error) {
	var parse, expand, execute, encode, hit []float64
	for i := 0; i < probeReps; i++ {
		root := b.rec.begin("replay", -1, i)
		var sp *scenario.Spec
		var rs *scenario.ResultSet
		var err error
		parse = append(parse, us(b.rec.timed("scenario.parse", root, i, func() {
			sp, err = scenario.Parse(bytes.NewReader(b.body))
		})))
		if err != nil {
			return inproc{}, err
		}
		expand = append(expand, us(b.rec.timed("scenario.expand", root, i, func() {
			if _, err = sp.Workloads.Select(); err == nil {
				_, err = sp.Combos(exec.BaseConfig())
			}
		})))
		if err != nil {
			return inproc{}, err
		}
		execute = append(execute, ms(b.rec.timed("experiments.run_scenario", root, i, func() {
			rs, err = exec.RunScenarioCtx(ctx, sp)
		})))
		if err != nil {
			return inproc{}, err
		}
		var buf bytes.Buffer
		encode = append(encode, us(b.rec.timed("report.encode", root, i, func() { err = rs.Emit(&buf, b.wd.format) })))
		b.rec.end(root)
		b.t.check(err == nil && bytes.Equal(buf.Bytes(), want), "in-process replay %d differs from the reference", i)
	}
	sp, err := scenario.Parse(bytes.NewReader(b.body))
	if err != nil {
		return inproc{}, err
	}
	rs, err := warm.RunScenarioCtx(ctx, sp)
	if err != nil {
		return inproc{}, err
	}
	for wi, w := range rs.Workloads {
		for ci, combo := range rs.Combos {
			var res *core.Result
			hit = append(hit, us(b.rec.timed("simcache.hit", -1, wi*len(rs.Combos)+ci, func() {
				res, err = warm.StartRunCtx(ctx, w, combo.Config).WaitCtx(ctx)
			})))
			b.t.check(err == nil && res == rs.Result(wi, ci), "warm cell %s %s was not a cache hit", w.Name(), combo.Fingerprint)
		}
	}
	p := inproc{parseUS: median(parse), executeMS: median(execute), encodeUS: median(encode)}
	b.set("scenario.parse_us", "us", p.parseUS)
	b.set("scenario.expand_us", "us", median(expand))
	b.set("scenario.execute_ms", "ms", p.executeMS)
	b.set("report.encode_us", "us", p.encodeUS)
	b.set("simcache.hit_us", "us", median(hit))
	return p, nil
}

// storeProbe writes every simulated cell into a fresh result store, reads
// each back with resultstore.Get, and then requests each through a
// session with one cache entry over that store, so every cell crosses the
// scheduler queue and a worker to a store read. It returns the store's
// directory.
func (b *bench) storeProbe(ctx context.Context, cells []cellRun) (string, error) {
	dir := filepath.Join(b.runDir, "probe-store")
	st, err := resultstore.Open(dir, 0)
	if err != nil {
		return "", err
	}
	var put, get, dispatch []float64
	for i, c := range cells {
		put = append(put, us(b.rec.timed("resultstore.put", -1, i, func() { err = st.Put(c.w.Name(), c.cfg, c.res) })))
		if err != nil {
			return "", err
		}
	}
	for i, c := range cells {
		var got *core.Result
		var ok bool
		get = append(get, us(b.rec.timed("resultstore.get", -1, i, func() { got, ok = st.Get(c.w.Name(), c.cfg) })))
		b.t.check(ok && reflect.DeepEqual(got, c.res), "store read of %s differs from the simulated result", c.w.Name())
	}
	opts := sessionOptions()
	opts.StoreDir, opts.CacheEntries = dir, 1
	s, err := experiments.NewSession(opts)
	if err != nil {
		return "", err
	}
	for i, c := range cells {
		var got *core.Result
		dispatch = append(dispatch, us(b.rec.timed("sched.dispatch", -1, i, func() {
			got, err = s.StartRunCtx(ctx, c.w, c.cfg).WaitCtx(ctx)
		})))
		b.t.check(err == nil && reflect.DeepEqual(got, c.res), "store-backed session result for %s differs", c.w.Name())
	}
	b.set("resultstore.put_us", "us", median(put))
	b.set("resultstore.get_us", "us", median(get))
	b.set("sched.dispatch_us", "us", median(dispatch)-median(get))
	return dir, nil
}

// daemonCounters reports the daemon's cache and store counters between
// two /v1/metrics snapshots.
func (b *bench) daemonCounters(m0, m1 daemonMetrics) {
	hits := float64(m1.Cache.Hits - m0.Cache.Hits)
	misses := float64(m1.Cache.Misses - m0.Cache.Misses)
	dh := float64(m1.DiskHits - m0.DiskHits)
	dm := float64(m1.DiskMisses - m0.DiskMisses)
	b.set("simcache.hit_ratio", "ratio", ratio(hits, hits+misses))
	b.set("simcache.evictions", "count", float64(m1.Cache.Evictions-m0.Cache.Evictions))
	b.set("resultstore.hit_ratio", "ratio", ratio(dh, dh+dm))
	note("daemon counters: cache hits=%.0f misses=%.0f evictions=%d, store hits=%.0f misses=%.0f",
		hits, misses, m1.Cache.Evictions-m0.Cache.Evictions, dh, dm)
}

// httpOverhead reports what the daemon adds to the in-process work of a
// request: client median latency minus the in-process medians of parse,
// execute and encode.
func (b *bench) httpOverhead(clientMS float64, p inproc) {
	b.set("smtsimd.http_overhead_ms", "ms", clientMS-(p.parseUS/1e3+p.executeMS+p.encodeUS/1e3))
}

// traceOverhead reports how much recording spans slowed the end-to-end
// median, as a percentage of the untraced half's median.
func (b *bench) traceOverhead(plainMS, tracedMS float64, nPlain, nTraced int) {
	note("untraced median %.4f ms (n=%d), traced median %.4f ms (n=%d), at reference speed", plainMS, nPlain, tracedMS, nTraced)
	b.set("bench.trace_overhead_pct", "%", 100*ratio(tracedMS-plainMS, plainMS))
}

// daemonProbe serves a sweep workload's grid from smtsimd over the probe
// store, so the sweeps report the serving layers too: the first request
// reads every cell from the store, the rest hit the memory cache.
func (b *bench) daemonProbe(ctx context.Context, storeDir string, want []byte, p inproc) error {
	d, err := b.startDaemon(ctx, []string{"-j", "1", "-store-dir", storeDir}, "probe")
	if err != nil {
		return err
	}
	defer d.stop()
	m0, err := d.metrics(ctx)
	if err != nil {
		return err
	}
	var lat []float64
	for i := 0; i < daemonProbeRequests; i++ {
		var status int
		var body []byte
		l := b.rec.timed("smtsimd.request", -1, i, func() { status, body, err = b.post(ctx, d) })
		b.t.check(err == nil && status == http.StatusOK && bytes.Equal(body, want),
			"daemon probe request %d: status %d, err %v", i, status, err)
		if i > 0 {
			lat = append(lat, ms(l))
		}
	}
	m1, err := d.metrics(ctx)
	if err != nil {
		return err
	}
	if err := b.checkIdle(ctx, d, m0.Goroutines); err != nil {
		return err
	}
	b.daemonCounters(m0, m1)
	b.httpOverhead(median(lat), p)
	return nil
}

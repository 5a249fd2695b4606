package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/experiments"
	"repro/internal/scenario"
)

const (
	// minSweeps is the fewest sweeps a measured phase runs, so a run's
	// median always rests on at least three sweeps.
	minSweeps = 3
	// setupBatches × setupBatch is how many parse+session set-ups setup_s
	// is the median of; one takes tens of microseconds, so it takes many
	// for a median that holds still from run to run. Each batch sits
	// between two calibration runs.
	setupBatches = 5
	setupBatch   = 1000
)

// sweepRun is one measured phase of cold sweeps.
type sweepRun struct {
	opMS      []float64 // one cold sweep including rendering, ms
	refMS     []float64 // the same sweeps at reference speed
	rssMB     []float64 // the driver's peak resident set during each sweep
	cpu       time.Duration
	cpuRefMS  float64 // the sweeps' CPU time at reference speed
	rows      int
	committed uint64               // simulated instructions committed in measurement windows
	busy      time.Duration        // wall time inside the sweeps
	session   *experiments.Session // the last sweep's, now warm
	rs        *scenario.ResultSet
	render    []byte
}

// newSweep parses a request and builds a cold session: the set-up a
// user of `experiments -scenario` pays before the sweep starts.
func (b *bench) newSweep(body []byte, parent, req int) (*scenario.Spec, *experiments.Session, error) {
	var sp *scenario.Spec
	var s *experiments.Session
	var err error
	b.rec.timed("scenario.parse", parent, req, func() { sp, err = scenario.Parse(bytes.NewReader(body)) })
	if err != nil {
		return nil, nil, err
	}
	b.rec.timed("experiments.new_session", parent, req, func() { s, err = experiments.NewSession(sessionOptions()) })
	return sp, s, err
}

// sweepPhase runs cold sweeps for at least dur, each between two
// calibration runs, cycling through the input seeds' requests and
// checking that every sweep renders the same bytes as the first sweep of
// its input seed. The returned session, result set and rendering are
// the last sweep's of the first input seed, whose request is b.body.
func (b *bench) sweepPhase(ctx context.Context, dur time.Duration) (*sweepRun, error) {
	r := &sweepRun{}
	renders := make([][]byte, len(b.bodies))
	start := time.Now()
	before := b.cal.run()
	for i := 0; i < minSweeps || time.Since(start) < dur; i++ {
		// Every sweep starts from a collected heap returned to the OS, so
		// its peak resident set is its own and not what the previous
		// sweeps left mapped.
		debug.FreeOSMemory()
		if err := resetPeakRSS("self"); err != nil {
			return nil, err
		}
		j := i % len(b.bodies)
		root := b.rec.begin("sweep", -1, i)
		sp, s, err := b.newSweep(b.bodies[j], root, i)
		if err != nil {
			return nil, fmt.Errorf("sweep set-up: %w", err)
		}
		t1, cpu1 := time.Now(), selfCPU()
		var rs *scenario.ResultSet
		var buf bytes.Buffer
		b.rec.timed("experiments.run_scenario", root, i, func() { rs, err = s.RunScenarioCtx(ctx, sp) })
		if err == nil {
			b.rec.timed("report.encode", root, i, func() { err = rs.Emit(&buf, b.wd.format) })
		}
		wall, cpu := time.Since(t1), selfCPU()-cpu1
		b.rec.end(root)
		rss, rssErr := peakRSSMB("self")
		if rssErr != nil {
			return nil, rssErr
		}
		r.rssMB = append(r.rssMB, rss)
		after := b.cal.run()
		r.opMS = append(r.opMS, ms(wall))
		r.refMS = append(r.refMS, ms(wall)*wallScale(before, after))
		r.busy += wall
		r.cpu += cpu
		r.cpuRefMS += ms(cpu) * cpuScale(before, after)
		before = after
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if !b.t.check(err == nil, "sweep %d: %v", i, err) {
			continue
		}
		if renders[j] == nil {
			renders[j] = buf.Bytes()
		} else {
			b.t.check(bytes.Equal(buf.Bytes(), renders[j]),
				"sweep %d rendered differently from the first sweep of input seed %d", i, j)
		}
		r.rows += len(rs.Rows)
		for wi := range rs.Workloads {
			for ci := range rs.Combos {
				r.committed += rs.Result(wi, ci).CommittedTotal
			}
		}
		if j == 0 {
			r.session, r.rs, r.render = s, rs, buf.Bytes()
		}
	}
	if r.rs == nil {
		return nil, fmt.Errorf("no sweep of the first input seed succeeded")
	}
	return r, nil
}

// sweepSetups runs setupBatches batches of setupBatch back-to-back
// set-ups, each batch starting from a freshly collected heap so every run
// measures from the same state, and lying between two calibration runs.
// It returns every set-up's wall time and each batch's CPU time per
// set-up, measured and at reference speed, in seconds.
func (b *bench) sweepSetups() (wall, cpu, cpuRef []float64, err error) {
	before := b.cal.run()
	for range setupBatches {
		runtime.GC()
		cpu0 := selfCPU()
		for range setupBatch {
			t := time.Now()
			if _, _, err := b.newSweep(b.body, -1, -1); err != nil {
				return nil, nil, nil, fmt.Errorf("sweep set-up: %w", err)
			}
			wall = append(wall, time.Since(t).Seconds())
		}
		c := (selfCPU() - cpu0).Seconds() / setupBatch
		after := b.cal.run()
		cpu = append(cpu, c)
		cpuRef = append(cpuRef, c*cpuScale(before, after))
		before = after
	}
	return wall, cpu, cpuRef, nil
}

// runSweep measures a sweep workload. Untraced, it reports the
// end-to-end metrics and then checks every cell of the last sweep
// against a scalar core.RunTraced outside the timed phase. Traced, it
// splits the phase into an untraced and a traced half (their difference
// is the tracing overhead) and probes every layer.
func (b *bench) runSweep(ctx context.Context) error {
	if !b.traced {
		setupWall, setupCPU, setupRef, err := b.sweepSetups()
		if err != nil {
			return err
		}
		r, err := b.sweepPhase(ctx, b.dur)
		if err != nil {
			return err
		}
		if _, err := b.simProbe(ctx, r.session, r.rs, false); err != nil {
			return err
		}
		n := len(r.opMS)
		note("sweeps=%d rows_per_s=%.2f sim_minst_per_s=%.4f", n,
			float64(r.rows)/r.busy.Seconds(), float64(r.committed)/1e6/r.busy.Seconds())
		note("measured, not scaled: op_p50_ms=%.4f cpu_ms_per_op=%.4f (%d sweeps) setup_s=%.9f (median of %d batches of %d) setup_wall_s=%.9f",
			median(r.opMS), ms(r.cpu)/float64(n), n, median(setupCPU), setupBatches, setupBatch, median(setupWall))
		b.set("op_p50_ref_ms", "ms", median(r.refMS))
		b.set("cpu_ref_ms_per_op", "ms", r.cpuRefMS/float64(n))
		b.set("peak_rss_mb", "MB", median(r.rssMB))
		b.set("setup_s", "s", median(setupRef))
		return nil
	}

	plain, err := b.sweepPhase(ctx, b.dur/2)
	if err != nil {
		return err
	}
	b.rec.on = true
	traced, err := b.sweepPhase(ctx, b.dur/2)
	if err != nil {
		return err
	}
	b.traceOverhead(median(plain.refMS), median(traced.refMS), len(plain.refMS), len(traced.refMS))
	sim, err := b.simProbe(ctx, traced.session, traced.rs, true)
	if err != nil {
		return err
	}
	b.simMetrics(sim, median(plain.opMS), traced.session.TraceStats())
	inproc, err := b.serveProbe(ctx, traced.session, traced.session, traced.render)
	if err != nil {
		return err
	}
	storeDir, err := b.storeProbe(ctx, sim.cells)
	if err != nil {
		return err
	}
	// The daemon probe serves the sweep from the probe store: the first
	// request reads every cell from disk, the rest hit the memory cache.
	return b.daemonProbe(ctx, storeDir, traced.render, inproc)
}

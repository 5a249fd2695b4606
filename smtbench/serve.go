package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/scenario"
)

const (
	// setupReps is how many times a serve workload sets up; setup_s is
	// the median and the last set-up serves the measured phase.
	setupReps = 3
	// minRequests is the fewest requests a measured phase sends.
	minRequests = 20
	// calibEvery is how long a measured phase sends requests between two
	// calibration runs.
	calibEvery = 500 * time.Millisecond
)

// daemon is a spawned smtsimd driven over loopback HTTP by one client
// connection.
type daemon struct {
	cmd    *exec.Cmd
	exited chan struct{} // closed once cmd.Wait has returned
	url    string
	client *http.Client
	log    *os.File
}

// daemonMetrics is the part of smtsimd's /v1/metrics the benchmark reads.
type daemonMetrics struct {
	Cache struct {
		Hits      uint64 `json:"hits"`
		Misses    uint64 `json:"misses"`
		Evictions uint64 `json:"evictions"`
	} `json:"cache"`
	Failures   uint64 `json:"failures"`
	Goroutines int    `json:"goroutines"`
	DiskHits   uint64 `json:"diskHits"`
	DiskMisses uint64 `json:"diskMisses"`
}

// startDaemon starts smtsimd on a free loopback port and waits until it
// answers /healthz.
func (b *bench) startDaemon(ctx context.Context, args []string, tag string) (*daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	logf, err := os.Create(filepath.Join(b.runDir, "smtsimd-"+tag+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(b.bin, "smtsimd"), append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start smtsimd: %w", err)
	}
	d := &daemon{
		cmd: cmd, exited: make(chan struct{}), url: "http://" + addr, log: logf,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
		}},
	}
	go func() {
		cmd.Wait()
		close(d.exited)
	}()
	deadline := time.Now().Add(15 * time.Second)
	for {
		if status, _, err := d.do(ctx, http.MethodGet, "/healthz", nil); err == nil && status == http.StatusOK {
			return d, nil
		}
		select {
		case <-d.exited:
			logf.Close()
			return nil, fmt.Errorf("smtsimd exited during start-up (log %s)", logf.Name())
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("smtsimd did not answer /healthz within 15s")
		}
	}
}

// stop shuts the daemon down (SIGTERM, then SIGKILL after 10s) and waits
// for it to exit.
func (d *daemon) stop() {
	d.client.CloseIdleConnections()
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
	d.log.Close()
}

// do sends one request and reads the whole response.
func (d *daemon) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, d.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// post sends the workload's scenario request.
func (b *bench) post(ctx context.Context, d *daemon) (int, []byte, error) {
	return d.do(ctx, http.MethodPost, "/v1/scenario?format="+b.wd.format, b.body)
}

func (d *daemon) metrics(ctx context.Context) (daemonMetrics, error) {
	var m daemonMetrics
	status, data, err := d.do(ctx, http.MethodGet, "/v1/metrics", nil)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("/v1/metrics: status %d", status)
	}
	if err == nil {
		err = json.Unmarshal(data, &m)
	}
	return m, err
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// serveState is one set-up daemon with its expected response.
type serveState struct {
	d          *daemon
	storeDir   string
	baseline   int // goroutines after start-up
	ref        []byte
	refRows    int
	refMS      float64 // wall time of the cold in-process reference sweep
	refSession *experiments.Session
	refRS      *scenario.ResultSet
}

// reference renders the request in process on a cold session, the bytes
// every response must match.
func (b *bench) reference(ctx context.Context) (*experiments.Session, *scenario.ResultSet, []byte, float64, error) {
	sp, err := scenario.Parse(bytes.NewReader(b.body))
	if err != nil {
		return nil, nil, nil, 0, err
	}
	s, err := experiments.NewSession(sessionOptions())
	if err != nil {
		return nil, nil, nil, 0, err
	}
	t := time.Now()
	rs, err := s.RunScenarioCtx(ctx, sp)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	var buf bytes.Buffer
	if err := rs.Emit(&buf, b.wd.format); err != nil {
		return nil, nil, nil, 0, err
	}
	return s, rs, buf.Bytes(), ms(time.Since(t)), nil
}

// serveSetup starts a daemon, sends the request once (filling the memory
// cache, or the result store for serve-store) and renders the reference.
func (b *bench) serveSetup(ctx context.Context, rep int) (*serveState, error) {
	st := &serveState{}
	args := b.wd.daemon
	if b.wd.store {
		st.storeDir = filepath.Join(b.runDir, "store-"+strconv.Itoa(rep))
		args = append(append([]string(nil), args...), "-store-dir", st.storeDir)
	}
	d, err := b.startDaemon(ctx, args, strconv.Itoa(rep))
	if err != nil {
		return nil, err
	}
	st.d = d
	m, err := d.metrics(ctx)
	if err != nil {
		d.stop()
		return nil, err
	}
	st.baseline = m.Goroutines
	status, warm, err := b.post(ctx, d)
	if err != nil {
		d.stop()
		return nil, fmt.Errorf("set-up request: %w", err)
	}
	st.refSession, st.refRS, st.ref, st.refMS, err = b.reference(ctx)
	if err != nil {
		d.stop()
		return nil, fmt.Errorf("reference rendering: %w", err)
	}
	st.refRows = len(st.refRS.Rows)
	b.t.check(status == http.StatusOK && bytes.Equal(warm, st.ref),
		"set-up request: status %d, response differs from the in-process rendering", status)
	return st, nil
}

// phase is one closed-loop measured phase: the client sends the
// request again as soon as the previous response has been read whole.
type phase struct {
	latMS    []float64
	refMS    []float64 // the latencies at reference speed
	rows     int
	busy     time.Duration // wall time spent sending requests
	cpu      time.Duration // daemon user+system CPU
	cpuRefMS float64       // the same at reference speed
	rssMB    []float64     // the daemon's peak resident set in each segment
}

// servePhase sends requests for at least dur, in segments of calibEvery
// that each lie between two calibration runs.
func (b *bench) servePhase(ctx context.Context, st *serveState, dur time.Duration) (*phase, error) {
	ph := &phase{}
	start := time.Now()
	pid := strconv.Itoa(st.d.pid())
	before := b.cal.run()
	for i := 0; i < minRequests || time.Since(start) < dur; {
		if err := resetPeakRSS(pid); err != nil {
			return nil, err
		}
		cpu0, err := procCPU(st.d.pid())
		if err != nil {
			return nil, err
		}
		seg := time.Now()
		var lat []float64
		for sent := 0; sent == 0 || time.Since(seg) < calibEvery; sent, i = sent+1, i+1 {
			id := b.rec.begin("smtsimd.request", -1, i)
			t := time.Now()
			status, body, err := b.post(ctx, st.d)
			l := time.Since(t)
			b.rec.end(id)
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			if b.t.check(err == nil && status == http.StatusOK && bytes.Equal(body, st.ref),
				"request %d: status %d, err %v, response matches reference: %t", i, status, err, bytes.Equal(body, st.ref)) {
				lat = append(lat, ms(l))
				ph.rows += st.refRows
			}
		}
		ph.busy += time.Since(seg)
		cpu1, err := procCPU(st.d.pid())
		if err != nil {
			return nil, err
		}
		rss, err := peakRSSMB(pid)
		if err != nil {
			return nil, err
		}
		ph.rssMB = append(ph.rssMB, rss)
		after := b.cal.run()
		f := wallScale(before, after)
		for _, l := range lat {
			ph.latMS = append(ph.latMS, l)
			ph.refMS = append(ph.refMS, l*f)
		}
		ph.cpu += cpu1 - cpu0
		ph.cpuRefMS += ms(cpu1-cpu0) * cpuScale(before, after)
		before = after
	}
	return ph, nil
}

// checkIdle checks that the daemon's goroutine gauge returns to its
// start-up baseline once no request is in flight.
func (b *bench) checkIdle(ctx context.Context, d *daemon, baseline int) error {
	var m daemonMetrics
	var err error
	for deadline := time.Now().Add(3 * time.Second); ; {
		if m, err = d.metrics(ctx); err != nil {
			return err
		}
		if m.Goroutines <= baseline || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	b.t.check(m.Goroutines <= baseline, "daemon holds %d goroutines when idle, %d after start-up", m.Goroutines, baseline)
	b.t.check(m.Failures == 0, "daemon counted %d failed requests", m.Failures)
	return nil
}

// runServe measures a daemon workload. Set-up runs setupReps times, each
// between two calibration runs; the last daemon serves the measured
// phase. Traced, the phase is split into an untraced and a traced half
// and every layer is probed in process with the same request.
func (b *bench) runServe(ctx context.Context) error {
	var setupWall, setupCPU, setupRef []float64
	var st *serveState
	before := b.cal.run()
	for rep := 0; rep < setupReps; rep++ {
		if st != nil {
			st.d.stop()
		}
		t, cpu0 := time.Now(), selfCPU()
		var err error
		if st, err = b.serveSetup(ctx, rep); err != nil {
			return err
		}
		wall := time.Since(t).Seconds()
		daemonCPU, err := procCPU(st.d.pid())
		if err != nil {
			st.d.stop()
			return err
		}
		cpu := (selfCPU() - cpu0 + daemonCPU).Seconds()
		after := b.cal.run()
		setupWall = append(setupWall, wall)
		setupCPU = append(setupCPU, cpu)
		setupRef = append(setupRef, cpu*cpuScale(before, after))
		before = after
	}
	defer st.d.stop()

	if !b.traced {
		ph, err := b.servePhase(ctx, st, b.dur)
		if err != nil {
			return err
		}
		if err := b.checkIdle(ctx, st.d, st.baseline); err != nil {
			return err
		}
		n := len(ph.latMS)
		p99, beyond := percentile(ph.latMS, 0.99)
		if beyond >= 10 {
			note("requests=%d p50_ms=%.4f p99_ms=%.4f (n=%d, %d samples beyond p99)", n, median(ph.latMS), p99, n, beyond)
		} else {
			note("requests=%d p50_ms=%.4f p99 not reported: only %d samples beyond it", n, median(ph.latMS), beyond)
		}
		note("requests_per_s=%.2f rows_per_s=%.1f", float64(n)/ph.busy.Seconds(), float64(ph.rows)/ph.busy.Seconds())
		note("measured, not scaled: op_p50_ms=%.4f cpu_ms_per_op=%.4f (%d requests) setup_s=%.6f (median of %d set-ups) setup_wall_s=%.6f",
			median(ph.latMS), ms(ph.cpu)/float64(n), n, median(setupCPU), len(setupCPU), median(setupWall))
		b.set("op_p50_ref_ms", "ms", median(ph.refMS))
		b.set("cpu_ref_ms_per_op", "ms", ph.cpuRefMS/float64(n))
		b.set("peak_rss_mb", "MB", median(ph.rssMB))
		b.set("setup_s", "s", median(setupRef))
		return nil
	}

	m0, err := st.d.metrics(ctx)
	if err != nil {
		return err
	}
	plain, err := b.servePhase(ctx, st, b.dur/2)
	if err != nil {
		return err
	}
	b.rec.on = true
	traced, err := b.servePhase(ctx, st, b.dur/2)
	if err != nil {
		return err
	}
	m1, err := st.d.metrics(ctx)
	if err != nil {
		return err
	}
	if err := b.checkIdle(ctx, st.d, st.baseline); err != nil {
		return err
	}
	b.traceOverhead(median(plain.refMS), median(traced.refMS), len(plain.refMS), len(traced.refMS))
	b.daemonCounters(m0, m1)

	sim, err := b.simProbe(ctx, st.refSession, st.refRS, true)
	if err != nil {
		return err
	}
	b.simMetrics(sim, st.refMS, st.refSession.TraceStats())
	exec := st.refSession
	if b.wd.store {
		// Replay on a session configured like the daemon: one cache
		// entry over the same store, so every cell is a store read.
		opts := sessionOptions()
		opts.StoreDir, opts.CacheEntries = st.storeDir, 1
		if exec, err = experiments.NewSession(opts); err != nil {
			return err
		}
	}
	inproc, err := b.serveProbe(ctx, st.refSession, exec, st.ref)
	if err != nil {
		return err
	}
	if _, err := b.storeProbe(ctx, sim.cells); err != nil {
		return err
	}
	b.httpOverhead(median(append(plain.latMS, traced.latMS...)), inproc)
	return nil
}

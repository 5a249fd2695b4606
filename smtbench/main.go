// Command smtbench is the repository's benchmark. It runs one named
// workload for a fixed time, checks every output it measures, and prints
// a JSON result as the last line of standard output:
//
//	bash smtbench/run.sh --workload sweep-mem --seed 1 --seconds 30 --trace 0
//
// run.sh builds this driver and cmd/smtsimd from the checkout first. The
// workloads are
//
//	sweep-mem    Figure 1's grid at -quick size (three MEM2 workloads x
//	             ICOUNT/STALL/FLUSH/RaT) in process on a cold
//	             experiments.Session with one worker
//	sweep-ilp    the same grid on ILP2 (runnable, not in BENCHMARK.json)
//	serve-hot    smtsimd -j 1 answering a 96-cell NDJSON sweep from its
//	             memory cache, one closed-loop client connection
//	serve-store  smtsimd -j 1 -cache-entries 1 -store-dir: the same sweep as
//	             buffered JSON, every cell read back from the result store
//
// With --trace 0 the result holds the end-to-end metrics. With --trace 1
// it holds the per-layer metrics of a traced run: the driver times its
// own calls into each layer's public API and records them as spans; the
// simulator and the daemon carry no instrumentation. Times are reported
// at reference speed, scaled by a calibration kernel run around each
// timed operation (calib.go). README.md lists what each workload loads
// and which metric each layer should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/scenario"
)

// workloadDef describes one benchmark workload.
type workloadDef struct {
	name string
	// serve selects the daemon path; otherwise the grid runs in process.
	serve bool
	// store gives the daemon a result store that setup populates.
	store bool
	// format is the rendering every response and reference is compared in.
	format string
	// daemon holds the smtsimd flags besides -addr and -store-dir.
	daemon []string
	// spec builds the workload's scenario from the seed.
	spec func(seed uint64) *scenario.Spec
}

var workloads = []workloadDef{
	{name: "sweep-mem", format: "ndjson", spec: func(seed uint64) *scenario.Spec {
		return sweepSpec("sweep-mem", "MEM2", seed)
	}},
	{name: "sweep-ilp", format: "ndjson", spec: func(seed uint64) *scenario.Spec {
		return sweepSpec("sweep-ilp", "ILP2", seed)
	}},
	{name: "serve-hot", serve: true, format: "ndjson", daemon: []string{"-j", "1"}, spec: serveSpec},
	{name: "serve-store", serve: true, store: true, format: "json",
		daemon: []string{"-j", "1", "-cache-entries", "1"}, spec: serveSpec},
}

const (
	// sweepTraceLen is the per-thread trace length of the sweep workloads
	// (experiments.Quick's), so a measured phase holds several sweeps.
	sweepTraceLen = 8000
	// sweepPerGroup is experiments.Quick's workloads per group too: a
	// sweep takes under a second, so a measured phase holds enough
	// sweeps, each between two calibration runs, for a steady median.
	sweepPerGroup = 3
	// sweepSeeds is how many input seeds a sweep workload's run cycles
	// through, one sweep each in turn: base.seed = seed×sweepSeeds + j
	// for j < sweepSeeds. A sweep's simulated work, and so its time,
	// differs by up to 15% from one input seed to the next on MEM2; the
	// median over eight of them moves far less from one --seed to the
	// next.
	sweepSeeds = 8
	// serveTraceLen keeps the serve grid's simulation (setup only) short.
	serveTraceLen = 1000
)

var policies = []string{"ICOUNT", "STALL", "FLUSH", "RaT"}

// sweepSpec is Figure 1's grid on one workload group.
func sweepSpec(name, group string, seed uint64) *scenario.Spec {
	tl := sweepTraceLen
	return &scenario.Spec{
		Name:      name,
		Workloads: scenario.WorkloadSpec{Groups: []string{group}, PerGroup: sweepPerGroup},
		Base:      scenario.Delta{TraceLen: &tl, Seed: &seed},
		Axes:      []scenario.Axis{policyAxis()},
		Metrics:   []string{"throughput", "fairness"},
	}
}

// serveSpec is the daemon workloads' request: the first four MEM2 and
// ILP2 workloads under four policies and three ROB sizes, 96 cells.
func serveSpec(seed uint64) *scenario.Spec {
	tl := serveTraceLen
	rob := scenario.Axis{Name: "rob"}
	for _, n := range []int{64, 128, 256} {
		rob.Points = append(rob.Points, scenario.Point{Label: fmt.Sprint(n), Delta: scenario.Delta{ROBSize: &n}})
	}
	return &scenario.Spec{
		Name:      "serve",
		Workloads: scenario.WorkloadSpec{Groups: []string{"MEM2", "ILP2"}, PerGroup: 4},
		Base:      scenario.Delta{TraceLen: &tl, Seed: &seed},
		Axes:      []scenario.Axis{policyAxis(), rob},
		Metrics:   []string{"throughput", "fairness", "ed2", "l2mpki"},
	}
}

// inputSeeds returns the scenario seeds a run with --seed seed uses: the
// seed itself for the serve workloads, sweepSeeds seeds derived from it
// for the sweeps.
func (wd workloadDef) inputSeeds(seed uint64) []uint64 {
	if wd.serve {
		return []uint64{seed}
	}
	out := make([]uint64, sweepSeeds)
	for j := range out {
		out[j] = seed*sweepSeeds + uint64(j)
	}
	return out
}

func policyAxis() scenario.Axis {
	ax := scenario.Axis{Name: "policy"}
	for _, p := range policies {
		ax.Points = append(ax.Points, scenario.Point{Label: p, Delta: scenario.Delta{Policy: &p}})
	}
	return ax
}

// sessionOptions are the in-process session options: the daemon's
// defaults with one simulation worker, as `smtsimd -j 1` runs.
func sessionOptions() experiments.Options {
	o := experiments.Default()
	o.Workers = 1
	return o
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts checked operations and keeps the first few failures.
type tally struct {
	attempted, failed int
	notes             []string
}

// check records one operation and reports whether it passed.
func (t *tally) check(ok bool, format string, args ...any) bool {
	t.attempted++
	if !ok {
		t.failed++
		if len(t.notes) < 10 {
			t.notes = append(t.notes, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// bench is one invocation's state.
type bench struct {
	wd     workloadDef
	seed   uint64
	dur    time.Duration
	traced bool
	bin    string   // directory holding smtsimd
	work   string   // scratch directory shared by invocations
	runDir string   // this invocation's scratch directory
	body   []byte   // the scenario request of the run's first input seed
	bodies [][]byte // the requests of every input seed, bodies[0] == body
	rec    *recorder
	cal    *calibrator
	t      tally
	out    map[string]metric
}

// set records a metric.
func (b *bench) set(name, unit string, v float64) { b.out[name] = metric{Value: v, Unit: unit} }

// note prints one human-readable report line; the last stdout line is
// reserved for the JSON result.
func note(format string, args ...any) { fmt.Printf("# "+format+"\n", args...) }

func main() {
	name := flag.String("workload", "", "workload: sweep-mem, sweep-ilp, serve-hot or serve-store")
	seed := flag.Uint64("seed", 1, "input seed: sets the scenario's base.seed")
	seconds := flag.Int("seconds", 10, "length of the measured phase in seconds")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	bin := flag.String("bin", "", "directory holding the smtsimd binary (default: this executable's directory)")
	work := flag.String("work", filepath.Join(".bench_build", "smtbench", "work"), "scratch directory")
	flag.Parse()

	var wd workloadDef
	for _, w := range workloads {
		if w.name == *name {
			wd = w
		}
	}
	if wd.name == "" || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: smtbench --workload sweep-mem|sweep-ilp|serve-hot|serve-store --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if *bin == "" {
		exe, err := os.Executable()
		if err != nil {
			fmt.Fprintln(os.Stderr, "smtbench:", err)
			os.Exit(1)
		}
		*bin = filepath.Dir(exe)
	}
	var bodies [][]byte
	for _, s := range wd.inputSeeds(*seed) {
		body, err := json.Marshal(wd.spec(s))
		if err != nil {
			fmt.Fprintln(os.Stderr, "smtbench:", err)
			os.Exit(1)
		}
		bodies = append(bodies, body)
	}
	b := &bench{
		wd: wd, seed: *seed, dur: time.Duration(*seconds) * time.Second, traced: *traceFlag == 1,
		bin: *bin, work: *work, body: bodies[0], bodies: bodies, rec: newRecorder(), cal: newCalibrator(), out: map[string]metric{},
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	res, err := b.main(ctx)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "smtbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "smtbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// main runs the workload between the run header and footer.
func (b *bench) main(ctx context.Context) (*result, error) {
	printHeader(b)
	b.runDir = filepath.Join(b.work, fmt.Sprintf("%s-seed%d-pid%d", b.wd.name, b.seed, os.Getpid()))
	if err := os.MkdirAll(b.runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(b.runDir)

	var err error
	switch {
	case b.wd.serve:
		err = b.runServe(ctx)
	default:
		err = b.runSweep(ctx)
	}
	if err != nil {
		return nil, err
	}
	if b.traced {
		b.reportSpans()
	}
	b.cal.report()
	note("loadavg_end=%s", loadAvg())
	for _, n := range b.t.notes {
		note("FAILED: %s", n)
	}
	return &result{
		Correct:   b.t.failed == 0,
		Attempted: b.t.attempted,
		Failed:    b.t.failed,
		Metrics:   b.out,
	}, nil
}

// printHeader prints the host and build facts a reader needs to judge a
// run: a noisy or different host shows here rather than in the verdict.
func printHeader(b *bench) {
	note("smtbench workload=%s seed=%d seconds=%.0f trace=%t", b.wd.name, b.seed, b.dur.Seconds(), b.traced)
	note("cpu=%q nproc=%d go=%s commit=%s", cpuModel(), runtime.NumCPU(), runtime.Version(), gitCommit())
	note("loadavg_start=%s", loadAvg())
	note("request=%s", strings.TrimSpace(string(b.body)))
	if len(b.bodies) > 1 {
		note("%d requests in turn, base.seed %v", len(b.bodies), b.wd.inputSeeds(b.seed))
	}
}

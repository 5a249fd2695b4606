package core

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/workload"
)

var updateExact = flag.Bool("update", false, "rewrite the exact result golden file")

// allPolicyKinds lists every PolicyKind constant declared in core.go.
func allPolicyKinds() []PolicyKind {
	return []PolicyKind{
		PolicyRR, PolicyICount, PolicySTALL, PolicyFLUSH, PolicyDCRA,
		PolicyHillClimbing, PolicyRaT, PolicyRaTNoPrefetch, PolicyRaTNoFetch,
		PolicyRaTCache, PolicyRaTNoFPInv, PolicyMLP, PolicyRaTDCRA,
	}
}

// exactFloat renders f so that parsing the text returns the same bits.
func exactFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// renderExact prints every field of r at full precision: a single-cycle
// drift anywhere in the run changes at least one line.
func renderExact(label string, r *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s workload=%s policy=%s cycles=%d executed=%d committed=%d truncated=%t\n",
		label, r.Workload, r.Policy, r.Cycles, r.ExecutedTotal, r.CommittedTotal, r.Truncated)
	for i, th := range r.Threads {
		fmt.Fprintf(&b, "  t%d %s committed=%d ipc=%s executed=%d l2miss=%d episodes=%d pseudo=%d folded=%d prefetch=%d regsN=%s regsRA=%s raCycles=%d\n",
			i, th.Benchmark, th.Committed, exactFloat(th.IPC), th.Executed, th.L2MissLoads,
			th.RunaheadEpisodes, th.PseudoRetired, th.Folded, th.PrefetchesIssued,
			exactFloat(th.RegsNormal), exactFloat(th.RegsRunahead), th.CyclesInRunahead)
	}
	return b.String()
}

// TestResultsExactGolden locks the complete Result of every policy on the
// first MEM2, MIX2 and ILP2 workload (plus RaT on 64-register files)
// against testdata/results_exact.golden. The figure goldens print rounded
// values; this one prints every counter and round-trip floats, so any
// change in simulated behaviour shows. Run with -update to regenerate
// after an intentional behaviour change.
func TestResultsExactGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("policy × workload sweep")
	}
	var got strings.Builder
	for _, group := range []string{"MEM2", "MIX2", "ILP2"} {
		w := workload.MustByGroup(group)[0]
		run := func(label string, cfg Config) {
			res, err := Run(cfg, w)
			if err != nil {
				t.Fatalf("%s %s: %v", group, label, err)
			}
			got.WriteString(renderExact(label, res))
		}
		for _, p := range allPolicyKinds() {
			cfg := DefaultConfig()
			cfg.TraceLen = 3000
			cfg.Policy = p
			run(string(p), cfg)
		}
		cfg := DefaultConfig()
		cfg.TraceLen = 3000
		cfg.Policy = PolicyRaT
		cfg.Pipeline.IntRegs, cfg.Pipeline.FPRegs = 64, 64
		run("RaT/regs64", cfg)
	}

	path := filepath.Join("testdata", "results_exact.golden")
	if *updateExact {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if got.String() != string(want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("results diverged from golden at line %d:\n got: %s\nwant: %s", i+1, g, w)
			}
		}
	}
}

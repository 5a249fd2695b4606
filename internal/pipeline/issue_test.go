package pipeline

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/runahead"
	"repro/internal/trace"
)

// clogTrace is one load that misses to memory followed by integer, load
// and FP work that all depends on it, in equal thirds: every queue fills
// with entries waiting on the same outstanding miss.
func clogTrace() *trace.Trace {
	insts := []isa.Inst{{
		PC: 0x400000, Op: isa.OpLoad, Dst: isa.IntReg(1), Src1: isa.IntReg(28),
		Addr: 0x10_0000_0000,
	}}
	for i := 0; len(insts) < 400; i++ {
		pc := 0x400000 + uint64(4*(len(insts)%256))
		insts = append(insts,
			isa.Inst{PC: pc, Op: isa.OpIntAlu, Dst: isa.IntReg(2 + i%8), Src1: isa.IntReg(1), Src2: isa.IntReg(1)},
			isa.Inst{PC: pc + 4, Op: isa.OpFpLoad, Dst: isa.FPReg(1 + i%8), Src1: isa.IntReg(1),
				Addr: 0x20_0000_0000 + uint64(i)*64},
			isa.Inst{PC: pc + 8, Op: isa.OpFpAlu, Dst: isa.FPReg(10 + i%8), Src1: isa.FPReg(1 + i%8), Src2: isa.FPReg(1 + i%8)},
		)
	}
	return trace.FromInsts("clog", trace.ClassMEM, insts)
}

// clogCore steps a baseline core on clogTrace until all three issue
// queues are full behind the outstanding miss.
func clogCore(tb testing.TB) *Core {
	tb.Helper()
	c, err := New(DefaultConfig(), []*trace.Trace{clogTrace()}, nil)
	if err != nil {
		tb.Fatal(err)
	}
	c.WarmupICache()
	full := func() bool {
		for _, q := range c.iqs[1:] {
			if q.count < q.cap {
				return false
			}
		}
		return true
	}
	for i := 0; i < 300 && !full(); i++ {
		c.Step()
	}
	if !full() {
		tb.Fatalf("issue queues not full after %d cycles", c.Cycle())
	}
	return c
}

// BenchmarkIssueStage measures one issue-stage pass over a machine whose
// three issue queues (192 entries) all wait on one L2 miss — the clogged
// state a memory-bound thread spends most of its cycles in. Nothing is
// selectable, so every pass leaves the machine unchanged.
func BenchmarkIssueStage(b *testing.B) {
	c := clogCore(b)
	now := c.Cycle()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.issueStage(now)
	}
}

// TestClogFixtureStaysClogged pins the benchmark's premise: an issue pass
// over the clogged machine selects nothing.
func TestClogFixtureStaysClogged(t *testing.T) {
	c := clogCore(t)
	before := c.ExecutedTotal()
	c.issueStage(c.Cycle())
	if got := c.ExecutedTotal(); got != before {
		t.Fatalf("issue pass executed %d instructions on the clogged machine", got-before)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestParanoidRunaheadAblations runs the runahead-cache and no-prefetch
// ablations on a generated MEM2 pair with the per-cycle invariant check,
// so the wakeup oracle sees store-to-load poison forwarding and
// L1-miss poisoning as well as the default runahead paths.
func TestParanoidRunaheadAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("paranoid runs")
	}
	for _, tc := range []struct {
		name string
		ra   func() runahead.Config
	}{
		{"RaT-racache", func() runahead.Config {
			ra := runahead.Default()
			ra.UseRunaheadCache = true
			return ra
		}},
		{"RaT-noprefetch", func() runahead.Config {
			ra := runahead.Default()
			ra.Prefetch = false
			return ra
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			art := trace.MustGenerate(trace.MustLookup("art"), trace.Options{Len: 4000, Seed: 1})
			mcf := trace.MustGenerate(trace.MustLookup("mcf"), trace.Options{Len: 4000, Seed: 2,
				DataBase: 0x8000_0000, CodeBase: 0x0200_0000})
			cfg := DefaultConfig()
			cfg.Runahead = tc.ra()
			c := mustNew(t, cfg, []*trace.Trace{art, mcf}, nil)
			run(t, c, 20000)
			var episodes, folded uint64
			for tid := 0; tid < c.NumThreads(); tid++ {
				episodes += c.Stats(tid).Runahead.Episodes.Value()
				folded += c.Stats(tid).Runahead.Folded.Value()
			}
			if episodes == 0 || folded == 0 {
				t.Fatalf("episodes=%d folded=%d: the runahead paths were not exercised", episodes, folded)
			}
		})
	}
}

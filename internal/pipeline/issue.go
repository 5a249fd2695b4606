package pipeline

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/regfile"
)

// issueStage is the wakeup/select stage, organised as in hardware
// (Palacharla, Jouppi & Smith, ISCA 1997). Wakeup is event-driven: at
// dispatch each entry counts its not-yet-ready sources and joins those
// registers' waiter lists, and whatever makes a register ready (a
// completion, a fold, the runahead trigger) drains its list through
// produce. An entry whose count reaches zero, or whose deciding source
// turns poisoned while its thread is in runahead mode, moves to its
// queue's ready list. Select then walks only the ready lists, Int, LS and
// FP in turn, each in dispatch order, against one global issue width.
// Poisoned entries fold there even when the width is spent: their
// destination turns ready-INV at once, so a consumer in this queue or a
// later-walked one sees it this cycle, and one in a queue already walked
// sees it next cycle. Folded
// instructions never execute and free their queue slot without consuming
// issue bandwidth, the "light thread" behaviour of §3.2. A ready entry
// that loses to the width, a busy unit or MSHR exhaustion keeps its place.
func (c *Core) issueStage(now uint64) {
	budget := c.cfg.Width
	for _, kind := range [...]IQKind{IQInt, IQLS, IQFP} {
		c.selectQueue(c.iqs[kind], now, &budget)
	}
}

// selectQueue walks one queue's ready list in dispatch order, folding
// poisoned entries and issuing ready ones while the budget lasts. A fold
// can wake entries of this queue mid-walk; they are its consumers, so
// they were dispatched after it and land behind i, to be visited in this
// walk.
func (c *Core) selectQueue(q *issueQueue, now uint64, budget *int) {
	units := c.fuBusy[q.kind]
	for i := 0; i < len(q.ready); {
		di := q.ready[i]
		t := c.threads[di.tid]
		if di.poisoned && t.mode == ModeRunahead {
			q.removeReady(i)
			c.foldInQueue(t, di)
			continue
		}
		if *budget == 0 || !c.issue(t, di, units, now) {
			i++
			continue
		}
		q.removeReady(i)
		*budget = *budget - 1
	}
}

// issue starts di on a free functional unit of its class. It returns
// false when every unit is busy or execution hits a structural hazard
// (MSHRs exhausted); di then stays ready for the next cycle.
func (c *Core) issue(t *thread, di *DynInst, units []uint64, now uint64) bool {
	unit := -1
	for u := range units {
		if units[u] <= now {
			unit = u
			break
		}
	}
	if unit < 0 || !c.execute(t, di, now) {
		return false
	}
	// Occupy the unit: pipelined ops for one cycle, FP divide for its
	// full latency (the unpipelined unit of Table 1's era).
	if di.tmpl.Op == isa.OpFpDiv {
		units[unit] = now + c.cfg.FPDivLat
	} else {
		units[unit] = now + 1
	}
	di.issued = true
	c.releaseRefs(di)
	c.iqs[di.iq].count--
	t.iqHeld[di.iq]--
	t.icount--
	t.stats.Executed.Inc()
	return true
}

// waitersFor returns the waiter-list heads of the register file backing
// architectural register a.
func (c *Core) waitersFor(a isa.Reg) []*waiter {
	if a.IsFP() {
		return c.fpWaiters
	}
	return c.intWaiters
}

// waitOn makes di wait for its source k (architectural a, physical p) if
// that register has not produced yet.
func (c *Core) waitOn(di *DynInst, k int, a isa.Reg, p regfile.PhysReg) {
	if p < 0 || c.fileFor(a).Ready(p) {
		return
	}
	heads := c.waitersFor(a)
	w := &di.waits[k]
	*w = waiter{di: di, next: heads[p]}
	if w.next != nil {
		w.next.prev = w
	}
	heads[p] = w
	di.pending++
}

// unlinkWaiters removes di from the waiter lists it is still on. Every
// path that takes an entry out of its queue with sources pending (squash,
// fold) calls it, so a recycled DynInst is never on a list.
func (c *Core) unlinkWaiters(di *DynInst) {
	for k := range di.waits {
		w := &di.waits[k]
		if w.di == nil {
			continue
		}
		a, p := di.tmpl.Src1, di.src1
		if k == 1 {
			a, p = di.tmpl.Src2, di.src2
		}
		if w.prev != nil {
			w.prev.next = w.next
		} else {
			c.waitersFor(a)[p] = w.next
		}
		if w.next != nil {
			w.next.prev = w.prev
		}
		*w = waiter{}
	}
}

// produce makes physical register p (backing architectural a) ready with
// the given INV bit and wakes its waiting consumers: each drops a pending
// source and joins its queue's ready list once selectable. A poisoned
// source that decides folding (the address of a memory op; either
// source of anything else) makes the consumer selectable at once when its
// thread is in runahead mode.
func (c *Core) produce(a isa.Reg, p regfile.PhysReg, inv bool) {
	c.fileFor(a).MarkReady(p, inv)
	heads := c.waitersFor(a)
	w := heads[p]
	heads[p] = nil
	for w != nil {
		next, di := w.next, w.di
		if inv && (w == &di.waits[0] || !di.tmpl.Op.IsMem()) {
			di.poisoned = true
		}
		*w = waiter{}
		di.pending--
		if !di.onReady && (di.pending == 0 || di.poisoned && c.threads[di.tid].mode == ModeRunahead) {
			c.iqs[di.iq].insertReady(di)
		}
		w = next
	}
}

// insertReady adds di to the ready list at its dispatch-order position.
func (q *issueQueue) insertReady(di *DynInst) {
	di.onReady = true
	i := len(q.ready)
	q.ready = append(q.ready, di)
	for i > 0 && q.ready[i-1].stamp > di.stamp {
		q.ready[i] = q.ready[i-1]
		i--
	}
	q.ready[i] = di
}

// removeReady deletes the i-th ready entry, keeping the order.
func (q *issueQueue) removeReady(i int) {
	q.ready[i].onReady = false
	n := len(q.ready) - 1
	copy(q.ready[i:], q.ready[i+1:])
	q.ready[n] = nil
	q.ready = q.ready[:n]
}

// dropReady deletes di from the ready list (squash).
func (q *issueQueue) dropReady(di *DynInst) {
	for i, r := range q.ready {
		if r == di {
			q.removeReady(i)
			return
		}
	}
}

// foldInQueue folds an instruction discovered invalid after dispatch: its
// destination is poisoned, its references release, and its queue slot
// frees — without occupying a functional unit.
func (c *Core) foldInQueue(t *thread, di *DynInst) {
	di.folded = true
	di.completed = true
	di.inv = true
	c.unlinkWaiters(di)
	c.releaseRefs(di)
	if di.dst >= 0 {
		c.produce(di.tmpl.Dst, di.dst, true)
	}
	c.iqs[di.iq].count--
	t.iqHeld[di.iq]--
	t.icount--
	t.stats.Runahead.Folded.Inc()
	if di.tmpl.Op.IsLoad() {
		t.stats.Runahead.InvalidLoads.Inc()
	}
	// A poisoned branch cannot be validated; runahead proceeds down the
	// predicted path without penalty (§3.1 "follow the most likely path").
	if di == t.blockingBranch {
		t.blockingBranch = nil
	}
}

// releaseRefs drops di's source references once it has read (issued or
// folded) — idempotent via the refsReleased flag.
func (c *Core) releaseRefs(di *DynInst) {
	if di.refsReleased {
		return
	}
	di.refsReleased = true
	if di.src1 >= 0 {
		c.fileFor(di.tmpl.Src1).DecRef(di.src1)
	}
	if di.src2 >= 0 {
		c.fileFor(di.tmpl.Src2).DecRef(di.src2)
	}
}

// execute starts di's execution at cycle now, scheduling its completion.
// It returns false if a structural hazard (MSHR exhaustion) forces a
// retry next cycle.
func (c *Core) execute(t *thread, di *DynInst, now uint64) bool {
	op := di.tmpl.Op
	var done uint64
	switch {
	case op.IsLoad():
		ok, d := c.executeLoad(t, di, now)
		if !ok {
			return false
		}
		done = d
	case op.IsStore():
		done = now + 1 // address generation; data memory is touched at commit
		if t.mode == ModeRunahead {
			c.executeRunaheadStore(t, di, now)
		}
	case op == isa.OpIntMul:
		done = now + c.cfg.IntMulLat
	case op == isa.OpFpAlu:
		done = now + c.cfg.FPAluLat
	case op == isa.OpFpMul:
		done = now + c.cfg.FPMulLat
	case op == isa.OpFpDiv:
		done = now + c.cfg.FPDivLat
	default: // IntAlu, Branch, Nop, sync ops in normal mode
		done = now + 1
	}
	if done <= now {
		done = now + 1
	}
	c.schedule(di, now, done)
	return true
}

// executeLoad performs the data-cache access for a load. Normal mode uses
// a demand access and records long-latency misses (the STALL/FLUSH/RaT
// trigger). Runahead mode converts L2 misses into prefetches and poisons
// the destination instead of waiting (§3.2).
func (c *Core) executeLoad(t *thread, di *DynInst, now uint64) (ok bool, done uint64) {
	addr := di.addr
	if t.mode != ModeRunahead {
		res := c.hier.Access(mem.KindLoad, t.id, addr, now)
		if res.NoMSHR {
			return false, 0
		}
		if res.Level == mem.LevelMemory {
			di.isL2Miss = true
			di.doneAt = res.DoneAt // published early for the detection path
			di.missDetectAt = now + c.cfg.Mem.DL1.Latency + c.cfg.Mem.L2.Latency
			t.stats.L2MissLoads.Inc()
			c.pendingDetect = append(c.pendingDetect, wheelRef{di, di.id})
		}
		return true, res.DoneAt
	}

	// Runahead load.
	if c.racache != nil {
		line := addr &^ (c.cfg.Mem.DL1.LineBytes - 1)
		if found, invData := c.racache.LookupLoad(t.id, line); found {
			// Store-to-load communication through the runahead cache: the
			// load forwards without a memory access and inherits the
			// stored data's validity.
			di.inv = invData
			if invData {
				t.stats.Runahead.InvalidLoads.Inc()
			}
			return true, now + 1
		}
	}
	if !c.cfg.Runahead.Prefetch {
		// Figure 4 "no prefetching" ablation: no access below the L1; an
		// L1 miss is poisoned, and the load is recorded so it cannot
		// re-trigger runahead after recovery (the paper's period-matching
		// methodology).
		if c.hier.DL1().Lookup(addr) {
			return true, now + c.cfg.Mem.DL1.Latency
		}
		di.inv = true
		t.raSuppress.add(di.seq)
		t.stats.Runahead.InvalidLoads.Inc()
		return true, now + 1
	}
	res := c.hier.Access(mem.KindPrefetch, t.id, addr, now)
	if res.NoMSHR {
		// No MSHR for the prefetch: poison and move on; runahead never
		// waits on memory.
		di.inv = true
		t.stats.Runahead.InvalidLoads.Inc()
		return true, now + 1
	}
	if res.Level == mem.LevelMemory {
		// Long-latency: the access stays in flight as a prefetch; the
		// load's result is poisoned and the thread keeps running.
		di.inv = true
		t.stats.Runahead.PrefetchesIssued.Inc()
		t.stats.Runahead.InvalidLoads.Inc()
		return true, now + 1
	}
	return true, res.DoneAt
}

// executeRunaheadStore issues the prefetch side effects of a valid-address
// runahead store: the target line is prefetched (stores miss too), and
// with the runahead cache enabled, the store records its data validity for
// later loads.
func (c *Core) executeRunaheadStore(t *thread, di *DynInst, now uint64) {
	addr := di.addr
	if c.racache != nil {
		line := addr &^ (c.cfg.Mem.DL1.LineBytes - 1)
		invData := c.regKnownInv(di.tmpl.Src2, di.src2)
		c.racache.RecordStore(t.id, line, invData)
	}
	if c.cfg.Runahead.Prefetch {
		res := c.hier.Access(mem.KindPrefetch, t.id, addr, now)
		if !res.NoMSHR && res.Level == mem.LevelMemory {
			t.stats.Runahead.PrefetchesIssued.Inc()
		}
	}
}

// schedule registers di's completion at cycle done.
func (c *Core) schedule(di *DynInst, now, done uint64) {
	if done-now >= wheelSize {
		// Defensive: the wheel must never wrap past an in-flight event.
		//lint:panicfree unreachable-invariant guard: wheelSize exceeds the maximum latency any unit can report; wrapping would corrupt event ordering, so halting beats a silently wrong simulation
		panic(fmt.Sprintf("pipeline: completion %d cycles ahead exceeds wheel %d", done-now, wheelSize))
	}
	di.doneAt = done
	slot := done % wheelSize
	c.wheel[slot] = append(c.wheel[slot], wheelRef{di, di.id})
}

// detectMisses fires the L2-miss detections due this cycle: the paper's
// STALL/FLUSH reactions (and the runahead trigger gate) happen when the
// L2 reports the miss, roughly an L1+L2 latency after issue — not the
// instant the access leaves the core. Loads squashed or already resolved
// in the meantime detect nothing.
func (c *Core) detectMisses(now uint64) {
	if len(c.pendingDetect) == 0 {
		return
	}
	kept := c.pendingDetect[:0]
	for _, ref := range c.pendingDetect {
		di := ref.di
		if !ref.live() || di.squashed || now >= di.doneAt {
			continue
		}
		if now < di.missDetectAt {
			kept = append(kept, ref)
			continue
		}
		t := c.threads[di.tid]
		t.pendingMisses = append(t.pendingMisses, di.doneAt)
		c.policy.OnL2Miss(c, di)
	}
	c.pendingDetect = kept
}

// completeStage drains completions scheduled for this cycle: results
// become ready, their waiting consumers wake, and branches resolve.
func (c *Core) completeStage(now uint64) {
	slot := now % wheelSize
	for _, ref := range c.wheel[slot] {
		di := ref.di
		if !ref.live() || di.squashed || di.completed {
			continue
		}
		di.completed = true
		if di.dst >= 0 {
			c.produce(di.tmpl.Dst, di.dst, di.inv)
		}
		if di.tmpl.Op.IsBranch() {
			c.resolveBranch(di, now)
		}
	}
	c.wheel[slot] = c.wheel[slot][:0]
}

// resolveBranch trains the predictor and lifts the fetch block of a
// resolved misprediction, charging the redirect penalty.
func (c *Core) resolveBranch(di *DynInst, now uint64) {
	t := c.threads[di.tid]
	t.stats.BranchResolved.Inc()
	if !di.inv {
		t.bp.Update(di.tmpl.PC, di.tmpl.Taken)
	}
	if di.mispredicted {
		t.stats.BranchMispredicted.Inc()
		if t.blockingBranch == di {
			t.blockingBranch = nil
			t.haveFetchLine = false
			redirect := now + 1 + c.cfg.MispredictRedirect
			if redirect > t.fetchBlockedUntil {
				t.fetchBlockedUntil = redirect
			}
		}
	}
}

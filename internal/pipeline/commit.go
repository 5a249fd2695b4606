package pipeline

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/regfile"
)

// commitStage retires up to Width instructions across threads, rotating
// the starting thread for fairness. Per-thread retirement is in program
// order from the thread's ROB head. This stage owns the Runahead Threads
// mode transitions: a long-latency load blocking a thread's head enters
// runahead (§3.1); a runahead thread pseudo-retires instead of committing;
// and when the triggering miss resolves, the thread restores its
// checkpoint and resumes normal execution.
func (c *Core) commitStage(now uint64) {
	n := len(c.threads)
	budget := c.cfg.Width
	for k := 0; k < n && budget > 0; k++ {
		t := c.threads[(int(now)+k)%n]
		c.commitThread(t, now, &budget)
	}
}

// commitThread retires from one thread's head while budget lasts.
func (c *Core) commitThread(t *thread, now uint64, budget *int) {
	for *budget > 0 {
		if t.mode == ModeRunahead && now >= t.raExitAt {
			c.exitRunahead(t, now)
			// Fall through in normal mode next cycle (the pipe is empty).
			return
		}
		if t.rob.len() == 0 {
			return
		}
		head := t.rob.front()
		if t.mode == ModeNormal {
			if c.shouldEnterRunahead(t, head, now) {
				c.enterRunahead(t, head, now)
				continue // head is now poisoned-complete; pseudo-retire path
			}
			if !head.completed {
				return
			}
			if head.tmpl.Op.IsStore() {
				// Stores write memory at commit; an exhausted MSHR file
				// stalls commit for this thread until a slot frees.
				res := c.hier.Access(mem.KindStore, t.id, head.addr, now)
				if res.NoMSHR {
					return
				}
			}
			c.retire(t, head)
			t.stats.Committed.Inc()
		} else {
			if !head.completed {
				return
			}
			c.retire(t, head)
			t.stats.Runahead.PseudoRetired.Inc()
		}
		*budget = *budget - 1
	}
}

// retire removes the head instruction from the ROB, releases its
// destination register, and recycles the instruction. A retired valid
// writer reads as architectural state, so its rename-table entry (if
// still current) clears to nil — the identical resolution — letting the
// object return to the pool immediately. A pseudo-retired *invalid*
// writer must keep resolving to poison through the table (§3.3's "when a
// physical register is invalid it can be freed and used by the rest of
// the threads" falls out of that resolution in mapGet), so it defers to
// the episode-end reclamation in exitRunahead.
func (c *Core) retire(t *thread, head *DynInst) {
	head.retired = true
	if head.dst >= 0 {
		c.fileFor(head.tmpl.Dst).Release(head.dst)
	}
	t.rob.popFront()
	c.robCount--
	if head.inv {
		t.deferredFree = append(t.deferredFree, head)
		return
	}
	if head.tmpl.HasDst() && t.writers[head.tmpl.Dst] == head {
		t.writers[head.tmpl.Dst] = nil
	}
	c.freeInst(head)
}

// shouldEnterRunahead applies the §3.1 trigger: a demand load that missed
// the L2 reaches the thread's ROB head while the miss is still
// outstanding.
func (c *Core) shouldEnterRunahead(t *thread, head *DynInst, now uint64) bool {
	if !c.cfg.Runahead.Enabled {
		return false
	}
	if !head.tmpl.Op.IsLoad() || !head.issued || head.completed || !head.isL2Miss {
		return false
	}
	if now < head.missDetectAt {
		return false // the L2 has not reported the miss yet
	}
	if now >= head.doneAt {
		return false // resolves this cycle anyway
	}
	if t.raSuppress.has(head.seq) {
		// Figure 4 methodology: loads invalidated during a no-prefetch
		// episode must not re-trigger runahead after recovery.
		return false
	}
	return true
}

// enterRunahead checkpoints the thread and switches it to runahead mode.
// The checkpoint is implicit: the trigger load sits at the thread's ROB
// head, so everything older is committed and the per-thread architectural
// state is exactly the committed state — only the trace position needs
// recording. The trigger load's destination is poisoned and the load
// pseudo-retires immediately; its miss remains in flight as the episode's
// terminator.
func (c *Core) enterRunahead(t *thread, head *DynInst, now uint64) {
	t.mode = ModeRunahead
	t.raExitAt = head.doneAt
	t.raLoadSeq = head.seq
	t.raEntered = now
	t.stats.Runahead.Episodes.Inc()

	head.inv = true
	head.completed = true
	if head.dst >= 0 {
		c.produce(head.tmpl.Dst, head.dst, true)
	}
}

// exitRunahead ends the episode: every in-flight instruction of the thread
// is squashed, the rename map returns to the checkpoint (all-committed)
// state, and fetch restarts at the trigger load after the exit penalty.
// The re-executed load finds its line filled (or its MSHR about to fill).
func (c *Core) exitRunahead(t *thread, now uint64) {
	c.squashThread(t)
	if c.paranoid {
		if live := t.liveWriters(); live != 0 {
			//lint:panicfree paranoid-mode invariant: a live mapping here means rename-state corruption; continuing would silently produce wrong results, which is worse than halting
			panic(fmt.Sprintf("pipeline: thread %d exits runahead with %d live mappings", t.id, live))
		}
	}
	t.resetWriters() // checkpoint restore: all state architectural, poison gone
	for i, di := range t.deferredFree {
		c.freeInst(di)
		t.deferredFree[i] = nil
	}
	t.deferredFree = t.deferredFree[:0]
	if c.racache != nil {
		c.racache.FlushThread(t.id)
	}
	t.mode = ModeNormal
	t.cursor = t.raLoadSeq
	t.fetchBlockedUntil = now + c.cfg.Runahead.ExitPenalty
	t.blockingBranch = nil
	t.haveFetchLine = false
}

// squashThread discards every in-flight instruction of t: the whole ROB
// window (youngest first, unwinding the rename map) and the front-end
// queue.
func (c *Core) squashThread(t *thread) {
	for t.rob.len() > 0 {
		c.unwind(t, t.rob.popBack())
		c.robCount--
	}
	c.dropFrontEnd(t)
}

// FlushAfter implements the FLUSH policy's action (Tullsen & Brown): all
// instructions of the thread younger than the long-latency load are
// squashed, releasing their resources; fetch restarts behind the load.
// The caller (the policy) also blocks fetch until the miss resolves.
func (c *Core) FlushAfter(ld *DynInst) {
	t := c.threads[ld.tid]
	for t.rob.len() > 0 {
		di := t.rob.back()
		if di == ld || di.id <= ld.id {
			break
		}
		t.rob.popBack()
		c.robCount--
		c.unwind(t, di)
	}
	c.dropFrontEnd(t)
	t.cursor = ld.seq + 1
	t.blockingBranch = nil
	t.haveFetchLine = false
}

// dropFrontEnd discards the not-yet-renamed front-end queue. Front-end
// instructions were never renamed or scheduled, so nothing else can
// reference them and they recycle immediately. Callers that may leave a
// blockingBranch in the queue clear that pointer themselves.
func (c *Core) dropFrontEnd(t *thread) {
	for i := 0; i < t.fq.len(); i++ {
		di := t.fq.at(i)
		di.squashed = true
		t.icount--
		t.stats.Squashed.Inc()
		c.freeInst(di)
	}
	t.fq.clear()
}

// unwind squashes one renamed, in-flight instruction: references drop,
// the rename map rolls back (callers iterate youngest-first so the
// previous-mapping chain reconstructs exactly), the destination register
// releases, and any issue-queue slot frees.
func (c *Core) unwind(t *thread, di *DynInst) {
	di.squashed = true
	if !di.refsReleased {
		c.releaseRefs(di)
	}
	if di.tmpl.HasDst() {
		// Youngest-first iteration guarantees di is the current table
		// entry; restoring its predecessor reconstructs the pre-rename
		// state exactly (a retired predecessor reads as architectural).
		// A predecessor returned to the pool (or already recycled — the
		// id changed) had retired valid, which also reads as
		// architectural: restore nil, never a pooled object.
		w := di.prevWriter
		if w != nil && (w.pooled || w.id != di.prevWriterID) {
			w = nil
		}
		t.writers[di.tmpl.Dst] = w
	}
	if di.dst >= 0 {
		c.fileFor(di.tmpl.Dst).Release(di.dst)
	}
	if !di.issued && !di.folded {
		q := c.iqs[di.iq]
		c.unlinkWaiters(di)
		if di.onReady {
			q.dropReady(di)
		}
		q.count--
		t.iqHeld[di.iq]--
		t.icount--
	}
	if t.blockingBranch == di {
		t.blockingBranch = nil
	}
	t.stats.Squashed.Inc()
	// The issue queue no longer names di; the completion wheel and the
	// miss-detection list may, but they validate ids, so the object can
	// recycle now.
	c.freeInst(di)
}

// CheckInvariants validates cross-structure consistency; the paranoid mode
// runs it every cycle. Besides the occupancy counts it re-derives the
// wakeup state of every waiting issue-queue entry from the register files
// (operandsReady, operandInvForIssue), so an event the waiter lists
// missed shows up on the cycle it happens.
func (c *Core) CheckInvariants() error {
	if err := c.intRF.CheckInvariants(); err != nil {
		return err
	}
	if err := c.fpRF.CheckInvariants(); err != nil {
		return err
	}
	robTotal, linked := 0, 0
	var live, ready [4]int
	for _, t := range c.threads {
		robTotal += t.rob.len()
		// icount must equal fq + waiting queue entries.
		want := t.fq.len()
		for i := 0; i < t.rob.len(); i++ {
			di := t.rob.at(i)
			if di.iq == IQNone || di.issued || di.folded {
				continue
			}
			want++
			live[di.iq]++
			if di.onReady {
				ready[di.iq]++
			}
			linked += int(di.pending)
			if err := c.checkWaiting(t, di); err != nil {
				return err
			}
		}
		if t.icount != want {
			return fmt.Errorf("thread %d: icount %d, want %d", t.id, t.icount, want)
		}
	}
	if robTotal != c.robCount {
		return fmt.Errorf("robCount %d, threads hold %d", c.robCount, robTotal)
	}
	if c.robCount > c.cfg.ROBSize {
		return fmt.Errorf("ROB over capacity: %d > %d", c.robCount, c.cfg.ROBSize)
	}
	for _, q := range c.iqs[1:] {
		if live[q.kind] != q.count {
			return fmt.Errorf("queue %d: %d live entries, count %d", q.kind, live[q.kind], q.count)
		}
		if q.count > q.cap {
			return fmt.Errorf("queue %d over capacity: %d > %d", q.kind, q.count, q.cap)
		}
		if len(q.ready) != ready[q.kind] {
			return fmt.Errorf("queue %d: ready list holds %d, %d entries marked ready", q.kind, len(q.ready), ready[q.kind])
		}
		for i, di := range q.ready {
			if !di.onReady || di.iq != q.kind || di.issued || di.folded || di.squashed || di.pooled {
				return fmt.Errorf("queue %d: ready list holds inst %d that is not a waiting entry of this queue", q.kind, di.id)
			}
			if i > 0 && q.ready[i-1].stamp >= di.stamp {
				return fmt.Errorf("queue %d: ready list out of dispatch order at %d", q.kind, i)
			}
		}
	}
	// Every list node must be a waiting entry's pending source naming this
	// register; with the per-entry link checks, equal totals make the lists
	// exact.
	nodes := 0
	for fi, heads := range [...][]*waiter{c.intWaiters, c.fpWaiters} {
		for p, w := range heads {
			var prev *waiter
			for ; w != nil; prev, w = w, w.next {
				nodes++
				di := w.di
				if di == nil || w.prev != prev {
					return fmt.Errorf("register %d: broken waiter list", p)
				}
				a, src := di.tmpl.Src1, di.src1
				if w == &di.waits[1] {
					a, src = di.tmpl.Src2, di.src2
				}
				if src != regfile.PhysReg(p) || a.IsFP() != (fi == 1) ||
					di.squashed || di.pooled || di.issued || di.folded {
					return fmt.Errorf("register %d: waiter inst %d is not a waiting consumer of it", p, di.id)
				}
			}
		}
	}
	if nodes != linked {
		return fmt.Errorf("waiter lists hold %d nodes, entries count %d pending sources", nodes, linked)
	}
	return nil
}

// checkWaiting compares one waiting queue entry's wakeup state with the
// predicates the register files imply.
func (c *Core) checkWaiting(t *thread, di *DynInst) error {
	pending := 0
	for k, src := range [2]struct {
		a isa.Reg
		p regfile.PhysReg
	}{{di.tmpl.Src1, di.src1}, {di.tmpl.Src2, di.src2}} {
		waiting := src.p >= 0 && !c.fileFor(src.a).Ready(src.p)
		if waiting {
			pending++
		}
		if linked := di.waits[k].di != nil; linked != waiting {
			return fmt.Errorf("inst %d src%d: waiter linked %t, register waiting %t", di.id, k+1, linked, waiting)
		}
	}
	if int(di.pending) != pending {
		return fmt.Errorf("inst %d: pending %d, want %d", di.id, di.pending, pending)
	}
	inv := c.operandInvForIssue(di)
	if di.poisoned != inv {
		return fmt.Errorf("inst %d: poisoned %t, want %t", di.id, di.poisoned, inv)
	}
	if want := c.operandsReady(di) || t.mode == ModeRunahead && inv; di.onReady != want {
		return fmt.Errorf("inst %d: on ready list %t, want %t", di.id, di.onReady, want)
	}
	return nil
}

// operandsReady reports whether all renamed sources have produced.
func (c *Core) operandsReady(di *DynInst) bool {
	if di.src1 >= 0 && !c.fileFor(di.tmpl.Src1).Ready(di.src1) {
		return false
	}
	return di.src2 < 0 || c.fileFor(di.tmpl.Src2).Ready(di.src2)
}

// operandInvForIssue reports whether di must fold due to poisoned
// operands: for memory ops only the address source counts; for everything
// else, either source.
func (c *Core) operandInvForIssue(di *DynInst) bool {
	if c.regKnownInv(di.tmpl.Src1, di.src1) {
		return true
	}
	if di.tmpl.Op.IsMem() {
		return false
	}
	return c.regKnownInv(di.tmpl.Src2, di.src2)
}

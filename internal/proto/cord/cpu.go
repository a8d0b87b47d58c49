package cord

import (
	"fmt"

	"cord/internal/memsys"
	"cord/internal/noc"
	"cord/internal/obs"
	"cord/internal/proto"
	"cord/internal/proto/core"
	"cord/internal/sim"
	"cord/internal/stats"
)

// cpu is the CORD processor-side adapter (Alg. 1). Every ordering decision —
// admission, provisioning, release/barrier fan-out, acknowledgment
// bookkeeping — is delegated to core.CordProc, the rule set the litmus model
// checker explores, and the messages those rules emit go on the wire as they
// are; this type owns only timing, NoC injection, stats, and obs events.
type cpu struct {
	proto.ProcBase
	cfg Config
	cp  core.CordParams

	// st is the protocol-visible state (epoch, store counters, unacked-epoch
	// table), mutated exclusively through core rules.
	st core.CordProc
	// buf is the reusable fan-out scratch passed to core emit rules.
	buf []core.Msg

	occCnt     *stats.Occupancy
	occUnacked *stats.Occupancy

	// wcAddr implements a one-entry write-combining buffer: consecutive
	// Relaxed stores to the same address merge into one wire transaction
	// (and one directory store-counter increment).
	wcAddr  memsys.Addr
	wcValid bool

	// OverflowFlushes counts injected flush Releases (counter wrap, proc
	// table overflow, SEQ wrap) for tests and diagnostics.
	OverflowFlushes int

	// wbPending counts outstanding (unacknowledged) write-back stores,
	// which remain source-ordered under CORD (§4.4).
	wbPending int
	wbNextTag uint64
	atomicTag uint64
	// relIssued records each epoch's Release issue time for the
	// release-latency distribution.
	relIssued map[uint64]sim.Time
}

func newCPU(sys *proto.System, id noc.NodeID, ps *stats.ProcStats, cfg Config, cp core.CordParams) *cpu {
	c := &cpu{
		cfg:        cfg,
		cp:         cp,
		st:         core.NewCordProc(sys.Indices()),
		occCnt:     stats.NewOccupancy("proc/store-counter", procCntEntryBytes),
		occUnacked: stats.NewOccupancy("proc/unacked-epoch", procUnackedEntryBytes),
		relIssued:  make(map[uint64]sim.Time),
	}
	c.InitBase(sys, id, ps, c)
	c.occCnt.Instance = id.String()
	c.occUnacked.Instance = id.String()
	sys.Run.Tables = append(sys.Run.Tables, c.occCnt, c.occUnacked)
	return c
}

// Conditions a CORD core blocks on. Except for an ordered atomic's epoch,
// the blocked op is re-executed from the top once its condition clears.
const (
	// waitProvision: a release bound for directory Arg is provisioned.
	waitProvision = proto.WaitProto + iota
	// waitEpoch: epoch Arg is fully acknowledged.
	waitEpoch
	// waitUnackedOutside: no release is unacknowledged at a directory other
	// than Arg (the NoNotifications drain).
	waitUnackedOutside
	// waitAllAcked: every release epoch is acknowledged.
	waitAllAcked
	// waitWBAcked: every write-back store is acknowledged.
	waitWBAcked
)

// Ready implements proto.Adapter.
func (c *cpu) Ready(w proto.Wait) bool {
	switch w.On {
	case waitProvision:
		return c.st.Provisioned(c.cp, int(w.Arg))
	case waitEpoch:
		return !c.st.EpochLive(w.Arg)
	case waitUnackedOutside:
		return !c.st.UnackedOutside(int(w.Arg))
	case waitAllAcked:
		return len(c.st.Unacked) == 0
	case waitWBAcked:
		return c.wbPending == 0
	}
	panic(fmt.Sprintf("cord: unknown wait %d", w.On))
}

// Receive implements proto.Adapter.
func (c *cpu) Receive(m *core.Msg) {
	switch m.Kind {
	case core.MAck:
		c.onAck(m.Ep)
	case core.MWBAck:
		if c.wbPending == 0 {
			panic("cord: spurious write-back ack")
		}
		c.wbPending--
		c.Wake()
	case core.MAtomicResp:
		if !c.Respond(m.Tag) {
			panic("cord: unknown atomic response tag")
		}
	default:
		panic(fmt.Sprintf("cord: cpu %v got unexpected message %v", c.ID, m.Kind))
	}
}

// Exec implements proto.Adapter.
func (c *cpu) Exec(op proto.Op) {
	switch op.Kind {
	case proto.OpAtomic:
		c.execAtomic(op)
	case proto.OpStoreWB:
		c.execWriteBack(op)
	case proto.OpStoreWT:
		ord := op.Ord
		if c.Sys.Mode == proto.TSO && ord == proto.Relaxed {
			// §6: under TSO every write-through store is directory-ordered
			// through the Release-Release mechanism.
			ord = proto.Release
		}
		if ord == proto.Release {
			c.execRelease(op)
		} else {
			c.execRelaxed(op)
		}
	case proto.OpBarrier:
		if (op.Ord != proto.Release && op.Ord != proto.SeqCst) || c.barrier() {
			c.Retire()
		}
	default:
		panic(fmt.Sprintf("cord: unexpected op %v", op))
	}
}

// --- Relaxed path (Alg. 1 lines 1-4) -------------------------------------

func (c *cpu) execRelaxed(op proto.Op) {
	if c.wcValid && c.wcAddr == op.Addr {
		// Write-combined with the previous Relaxed store.
		c.Retire()
		return
	}
	d := c.Sys.Index(c.Sys.Map.HomeOf(op.Addr))
	if !c.admitRelaxed(d) {
		return
	}
	c.wcAddr, c.wcValid = op.Addr, true
	c.sendRelaxed(op, d, stats.ClassRelaxedData, 0)
	c.Retire()
}

// admitRelaxed reports whether a relaxed store or atomic to directory d can
// be counted in the current epoch. If not, it flushes: it injects an empty
// Release to d (full Release semantics, so every pending directory's tables
// are finalized) and blocks the core until that is acknowledged, and the op
// re-executes in the new epoch. Acknowledgments never change the store
// counters, so a re-execution after a provisioning stall reaches the same
// verdict.
func (c *cpu) admitRelaxed(d int) bool {
	var kind stats.StallKind
	switch c.st.RelaxedAdmit(c.cp, d) {
	case core.AdmitOK:
		return true
	case core.AdmitOverflow:
		// Store-counter overflow (§4.1).
		kind = stats.StallOverflow
	case core.AdmitTableFull:
		// Processor store-counter table overflow (§4.3): tracking a new
		// directory needs a table entry; flush the epoch to recycle them all.
		kind = stats.StallTableFull
	}
	if !c.provisioned(d) {
		return false
	}
	c.OverflowFlushes++
	c.issueRelease(proto.Op{Kind: proto.OpStoreWT, Ord: proto.Release, Size: 0}, d)
	c.Block(proto.Wait{On: waitEpoch, Arg: c.st.Ep - 1, Stall: kind})
	return false
}

// --- Release path (Alg. 1 lines 5-13) -------------------------------------

func (c *cpu) execRelease(op proto.Op) {
	d := c.Sys.Index(c.Sys.Map.HomeOf(op.Addr))
	if !c.provisioned(d) {
		return
	}
	if c.cp.NoNotifications && (c.st.DirtyOutside(d) || c.st.UnackedOutside(d)) {
		// Ablation: without inter-directory notifications, multi-directory
		// epochs are source-ordered — drain other directories first.
		c.drainOthers(d)
		return
	}
	c.issueRelease(op, d)
	c.Retire()
}

// drainOthers drains every directory except index `except`: empty Releases
// to dirty ones (core.IssueBarrier in drain mode, sharing the current
// epoch), then a stall until every acknowledgment not bound for it is in.
// It always blocks — the caller found stores or releases outstanding
// outside `except` — and the op re-executes once they are drained. Used
// only by the NoNotifications ablation.
func (c *cpu) drainOthers(except int) {
	msgs, ok, bad := c.st.IssueBarrier(c.cp, except, c.Ix, c.buf[:0])
	if !ok {
		c.stallProvision(bad)
		return
	}
	c.buf = msgs
	if len(msgs) > 0 {
		c.occUnacked.Inc()
		for range msgs {
			// Each drained directory's store-counter entry retired.
			c.occCnt.Dec()
		}
	}
	c.sendBarriers(msgs)
	c.Block(proto.Wait{On: waitUnackedOutside, Arg: uint64(except), Stall: stats.StallAckWait})
}

// sendBarriers injects core-emitted empty Releases onto the NoC.
func (c *cpu) sendBarriers(msgs []core.Msg) {
	for _, m := range msgs {
		c.send(m, stats.ClassBarrier, proto.HeaderBytes+c.cfg.ReleaseOverhead())
	}
}

// send boxes a core-emitted message and injects it towards directory m.Dir.
func (c *cpu) send(m core.Msg, class stats.MsgClass, bytes int) {
	c.Sys.Net.Send(c.ID, c.Sys.DirAt(m.Dir), class, bytes, &m)
}

// sendRelaxed counts a relaxed store or atomic to directory d in the current
// epoch and injects it, tagged with the epoch. tag is an atomic's response
// tag (atomic tags start at 1); a plain store passes 0.
func (c *cpu) sendRelaxed(op proto.Op, d int, class stats.MsgClass, tag uint64) {
	ep, newEntry := c.st.NoteRelaxed(d)
	if newEntry {
		c.occCnt.Inc()
	}
	c.send(core.Msg{Kind: core.MRelaxed, Src: c.Ix, Dir: d, Ep: ep, Addr: uint64(op.Addr),
		Val: op.Value, Size: op.Size, Atomic: tag != 0, Tag: tag},
		class, proto.HeaderBytes+op.Size+c.cfg.RelaxedOverhead())
}

// provisioned reports whether a release bound for directory d can issue
// now; if not, the core blocks until it can and the op re-executes.
func (c *cpu) provisioned(d int) bool {
	if c.st.Provisioned(c.cp, d) {
		return true
	}
	c.stallProvision(d)
	return false
}

func (c *cpu) stallProvision(d int) {
	kind := stats.StallTableFull
	if c.st.WindowBlocked(c.cp) {
		kind = stats.StallOverflow
	}
	c.Block(proto.Wait{On: waitProvision, Arg: uint64(d), Stall: kind})
}

// issueRelease delegates the Release (and its notification fan-out) to the
// core rule and injects the emitted messages in order. The caller has
// already verified provisioning.
func (c *cpu) issueRelease(op proto.Op, d int) {
	ep := c.st.Ep
	live := c.st.CntLive
	rel := core.Msg{Src: c.Ix, Addr: uint64(op.Addr), Val: op.Value,
		Size: op.Size, Barrier: op.Size == 0, Atomic: op.Kind == proto.OpAtomic}
	msgs := c.st.IssueRelease(d, rel, c.buf[:0])
	for _, m := range msgs {
		if m.Kind == core.MReqNotify {
			c.send(m, stats.ClassReqNotify, proto.ReqNotifyBytes)
		} else {
			c.send(m, stats.ClassReleaseData, proto.HeaderBytes+op.Size+c.cfg.ReleaseOverhead())
		}
	}
	c.buf = msgs
	c.occUnacked.Inc()
	c.relIssued[ep] = c.Now()
	for ; live > 0; live-- {
		// advanceEpoch reset every live store counter.
		c.occCnt.Dec()
	}
	c.wcValid = false
}

// --- Atomics -----------------------------------------------------------------

// execAtomic issues a directory-ordered far fetch-add. Ordering-wise it
// behaves exactly like the corresponding store (Relaxed atomics count in the
// epoch's store counter; Release atomics take the full Release path), but
// the core additionally blocks on the value response — a data dependency
// that directory ordering cannot remove, which is why atomic-heavy
// workloads (TQH's task queue) gain least from CORD.
func (c *cpu) execAtomic(op proto.Op) {
	ord := op.Ord
	if c.Sys.Mode == proto.TSO && ord == proto.Relaxed {
		ord = proto.Release
	}
	d := c.Sys.Index(c.Sys.Map.HomeOf(op.Addr))
	if ord == proto.Release || ord == proto.SeqCst {
		if !c.provisioned(d) {
			return
		}
		if c.cp.NoNotifications && (c.st.DirtyOutside(d) || c.st.UnackedOutside(d)) {
			c.drainOthers(d)
			return
		}
		aop := op
		aop.Ord = proto.Release
		c.issueRelease(aop, d)
		// The release's acknowledgment carries the old value: retire on it.
		c.Block(proto.Wait{On: waitEpoch, Arg: c.st.Ep - 1, Stall: stats.StallAcquire, Retire: true})
		return
	}
	// Relaxed atomic: epoch-counted like a Relaxed store, plus the blocking
	// value response.
	if !c.admitRelaxed(d) {
		return
	}
	c.wcValid = false // atomics never write-combine
	c.atomicTag++
	c.Block(proto.Wait{On: proto.WaitResp, Arg: c.atomicTag, Stall: stats.StallAcquire, Retire: true})
	c.sendRelaxed(op, d, stats.ClassAtomic, c.atomicTag)
}

// --- Write-back stores (§4.4) ----------------------------------------------

// execWriteBack issues a write-back store, which CORD leaves source-ordered.
// A Release write-back store after directory-ordered Relaxed stores cannot
// be source-ordered against them (they have no acknowledgments), so the
// processor injects a directory-ordered Release barrier and stalls until it
// is acknowledged before issuing the Release write-back (§4.4).
func (c *cpu) execWriteBack(op proto.Op) {
	if op.Ord != proto.Release && c.Sys.Mode != proto.TSO {
		c.sendWB(op)
		c.Retire()
		return
	}
	// Ordering barrier against uncommitted directory-ordered stores.
	if (c.st.Dirty() || len(c.st.Unacked) > 0) && !c.barrier() {
		return
	}
	// Source ordering of the write-back Release against prior write-backs.
	if !c.Await(proto.Wait{On: waitWBAcked, Stall: stats.StallAckWait}) {
		return
	}
	c.sendWB(op)
	c.Retire()
}

func (c *cpu) sendWB(op proto.Op) {
	c.wbNextTag++
	c.wbPending++
	c.wcValid = false
	home := c.Sys.Map.HomeOf(op.Addr)
	c.Sys.Net.Send(c.ID, home, stats.ClassWriteback, proto.HeaderBytes+op.Size,
		&core.Msg{Kind: core.MWBData, Src: c.Ix, Addr: uint64(op.Addr), Val: op.Value,
			Size: op.Size, Tag: c.wbNextTag})
}

// --- Release / SC barrier (§4.4) ------------------------------------------

// barrier makes all prior write-through stores globally visible: it
// broadcasts an empty directory-ordered Release to every directory holding
// uncommitted Relaxed stores of the current epoch, and waits for those plus
// every already-outstanding Release acknowledgment (§4.4). Directories whose
// only pending work is an in-flight acknowledged-on-commit Release need no
// new message — their existing ack suffices. It reports whether nothing is
// left to wait for; otherwise the core blocks and the op re-executes, and
// then finds nothing to broadcast.
func (c *cpu) barrier() bool {
	live := c.st.CntLive
	msgs, ok, bad := c.st.IssueBarrier(c.cp, -1, c.Ix, c.buf[:0])
	if !ok {
		c.stallProvision(bad)
		return false
	}
	c.buf = msgs
	if len(msgs) > 0 {
		c.occUnacked.Inc()
		c.wcValid = false
		for ; live > 0; live-- {
			c.occCnt.Dec()
		}
	}
	c.sendBarriers(msgs)
	return c.Await(proto.Wait{On: waitAllAcked, Stall: stats.StallRelease})
}

// --- Acknowledgments (Alg. 1 lines 14-15) ---------------------------------

func (c *cpu) onAck(ep uint64) {
	if c.st.AckRelease(ep) {
		c.occUnacked.Dec()
		var lat sim.Time
		if at, ok := c.relIssued[ep]; ok {
			lat = c.Now() - at
			c.PS.ReleaseLatency.Add(lat)
			delete(c.relIssued, ep)
		}
		if rec := c.Obs; rec.Take() {
			rec.Record(obs.Event{At: c.Now(), Kind: obs.KRelAck,
				Src: c.ID.Obs(), Seq: ep, Dur: lat})
		}
	}
	c.Wake()
}

// Package wb implements the source-ordered write-back baseline (the "WB"
// scheme of §5.2): a MESI-style protocol in which stores allocate ownership
// of the cache line in the producer's private cache, and a Release flushes
// all dirty lines to their home directories before publishing the flag.
//
// The model captures exactly the effects the paper attributes to WB:
//   - data reuse: repeated stores to an owned line generate no traffic, so
//     workloads with write locality (PR, SSSP) benefit;
//   - data movement cost: every communicated line costs an ownership fill
//     (request + line) plus a write-back (line + ack), roughly doubling
//     write-through's wire bytes for streaming communication;
//   - source ordering: the Release stalls for MSHR drain and write-back
//     acknowledgments, a longer critical path than SO's single ack wait.
//
// Simplifications (documented in DESIGN.md): producer caches are large
// enough to hold the communication working set; a Release writes dirty lines
// back but retains ownership (an update-style flush, as in heterogeneous
// write-back RC protocols), so steady-state epochs pay write-backs but not
// refetches; ownership grants carry no data because producer buffers have no
// remote sharer between flushes; and concurrent sharers of a data line are
// not modeled because the evaluated workloads partition producer buffers.
//
// Ownership tracking, the dirty table, and the flush-before-flag release
// discipline are core.WBProc rules shared with the litmus model checker;
// this package owns timing, stats, and obs.
package wb

import (
	"fmt"

	"cord/internal/memsys"
	"cord/internal/noc"
	"cord/internal/proto"
	"cord/internal/proto/core"
	"cord/internal/stats"
)

// Config tunes the write-back processor.
type Config struct {
	// MSHRs bounds outstanding ownership fills.
	MSHRs int
}

// DefaultConfig matches a modest out-of-order core.
func DefaultConfig() Config { return Config{MSHRs: 32} }

// Protocol is the proto.Builder for the write-back baseline.
type Protocol struct {
	Cfg Config
}

// New returns WB with the default configuration.
func New() *Protocol { return &Protocol{Cfg: DefaultConfig()} }

// Name implements proto.Builder.
func (p *Protocol) Name() string { return "WB" }

type cpu struct {
	proto.ProcBase
	cfg Config

	// st holds the protocol state proper — ownership, dirty data, MSHR and
	// ack accounting — and decides store admission and flush eligibility.
	st      core.WBProc
	nextTag uint64
	// hitToggle lets store hits retire at two per cycle: write-back hits
	// drain into the L1 at full pipeline width, unlike write-through stores
	// which each occupy a write-combining/egress slot.
	hitToggle bool
}

// Conditions a write-back core blocks on.
const (
	// waitCanFlush: every ownership fetch has filled (core.WBProc.CanFlush).
	waitCanFlush = proto.WaitProto + iota
	// waitDrained: every write-back and flag store is acknowledged.
	waitDrained
	// waitMSHR: a miss register is free.
	waitMSHR
	// waitFetched: the ownership fetch of line Arg has filled.
	waitFetched
)

// Ready implements proto.Adapter.
func (c *cpu) Ready(w proto.Wait) bool {
	switch w.On {
	case waitCanFlush:
		return c.st.CanFlush()
	case waitDrained:
		return c.st.Drained()
	case waitMSHR:
		return c.st.MSHR < c.cfg.MSHRs
	case waitFetched:
		return !c.st.Fetching[w.Arg]
	}
	panic(fmt.Sprintf("wb: unknown wait %d", w.On))
}

// Receive implements proto.Adapter.
func (c *cpu) Receive(m *core.Msg) {
	switch m.Kind {
	case core.MWBFill:
		c.st.Fill(m.Addr)
		c.Wake()
	case core.MWBAck:
		c.st.NoteAck()
		c.Respond(m.Tag)
		c.Wake()
	default:
		panic(fmt.Sprintf("wb: cpu %v got unexpected message %v", c.ID, m.Kind))
	}
}

// Exec implements proto.Adapter.
func (c *cpu) Exec(op proto.Op) {
	switch op.Kind {
	case proto.OpAtomic:
		// Atomics execute at the home directory (uncached far atomics);
		// Release atomics flush dirty lines first, like Release stores.
		if (op.Ord == proto.Release || op.Ord == proto.SeqCst || c.Sys.Mode == proto.TSO) && !c.flush() {
			return
		}
		c.nextTag++
		c.st.NoteFlag()
		c.Block(proto.Wait{On: proto.WaitResp, Arg: c.nextTag, Stall: stats.StallAcquire, Retire: true})
		home := c.Sys.Map.HomeOf(op.Addr)
		c.Sys.Net.Send(c.ID, home, stats.ClassAtomic, proto.HeaderBytes+op.Size,
			&core.Msg{Kind: core.MWBFlag, Src: c.Ix, Addr: uint64(op.Addr), Val: op.Value,
				Size: op.Size, Atomic: true, Tag: c.nextTag})
	case proto.OpStoreWT, proto.OpStoreWB:
		// Under the WB scheme all stores use the write-back policy.
		if op.Ord == proto.Release {
			c.execRelease(op)
		} else {
			c.execStore(op)
		}
	case proto.OpBarrier:
		if (op.Ord != proto.Release && op.Ord != proto.SeqCst) || c.flush() {
			c.Retire()
		}
	default:
		panic(fmt.Sprintf("wb: unexpected op %v", op))
	}
}

func (c *cpu) execStore(op proto.Op) {
	line := op.Addr.Line()
	switch c.st.StoreAdmit(c.cfg.MSHRs, uint64(line)) {
	case core.WBHit:
		// Write hit (or hit-under-miss): data reuse, no traffic. Hits
		// retire at two per cycle (see hitToggle).
		c.st.RecordDirty(uint64(line), uint64(op.Addr), op.Value)
		c.hitToggle = !c.hitToggle
		if c.hitToggle {
			c.RetireDualIssue()
		} else {
			c.Retire()
		}
	case core.WBMSHRFull:
		c.Block(proto.Wait{On: waitMSHR, Stall: stats.StallStoreBuf})
	case core.WBMiss:
		c.st.BeginFetch(uint64(line))
		c.st.RecordDirty(uint64(line), uint64(op.Addr), op.Value)
		home := c.Sys.Map.HomeOf(line)
		c.Sys.Net.Send(c.ID, home, stats.ClassOwnReq, proto.HeaderBytes,
			&core.Msg{Kind: core.MWBGetM, Src: c.Ix, Addr: uint64(line)})
		if c.Sys.Mode == proto.TSO {
			// TSO source-orders every store: the next op retires only after
			// ownership (and hence global order) is established.
			c.Block(proto.Wait{On: waitFetched, Arg: uint64(line), Stall: stats.StallStoreBuf, Retire: true})
			return
		}
		c.Retire()
	}
}

// execRelease flushes all dirty lines, waits for their acknowledgments, then
// publishes the flag (which the next Release's drain will wait on).
func (c *cpu) execRelease(op proto.Op) {
	if !c.flush() {
		return
	}
	c.nextTag++
	c.st.NoteFlag()
	home := c.Sys.Map.HomeOf(op.Addr)
	c.Sys.Net.Send(c.ID, home, stats.ClassReleaseData, proto.HeaderBytes+op.Size,
		&core.Msg{Kind: core.MWBFlag, Src: c.Ix, Addr: uint64(op.Addr), Val: op.Value,
			Size: op.Size, Tag: c.nextTag})
	c.Retire()
}

// flush drains MSHRs, writes back every dirty line, and reports whether
// every acknowledgment (including prior flag stores) is in. Otherwise the
// core blocks and the op re-executes once the step it waits on clears; by
// then nothing is dirty, so the write-back is not repeated.
func (c *cpu) flush() bool {
	if !c.Await(proto.Wait{On: waitCanFlush, Stall: stats.StallAckWait}) {
		return false
	}
	c.st.FlushLines(func(line uint64, vals map[uint64]uint64) {
		c.nextTag++
		home := c.Sys.Map.HomeOf(memsys.Addr(line))
		c.Sys.Net.Send(c.ID, home, stats.ClassWriteback,
			proto.HeaderBytes+memsys.LineBytes,
			&proto.LineWrite{Msg: core.Msg{Kind: core.MWBData, Src: c.Ix, Addr: line,
				Tag: c.nextTag}, Words: vals})
	})
	return c.Await(proto.Wait{On: waitDrained, Stall: stats.StallAckWait})
}

// dir is the WB home directory: grants ownership, absorbs write-backs
// (proto.LineWrite, committed by DirBase), commits flags.
type dir struct {
	proto.DirBase
}

// Receive implements proto.DirAdapter.
func (d *dir) Receive(m *core.Msg) {
	switch m.Kind {
	case core.MWBGetM:
		d.Lookup(m)
	case core.MWBFlag:
		d.Commit(m)
	default:
		panic(fmt.Sprintf("wb: dir %v got unexpected message %v", d.ID, m.Kind))
	}
}

// Committed implements proto.DirAdapter.
func (d *dir) Committed(m *core.Msg) {
	switch m.Kind {
	case core.MWBGetM:
		// Ownership grant without a data fill: producer buffers have no
		// remote sharer between flushes, so the grant is a control message.
		d.Reply(m, core.MWBFill, stats.ClassOwnData, proto.HeaderBytes)
	case core.MWBFlag:
		if !m.Atomic {
			d.NoteRelCommit(m, m.Tag)
		}
		d.Ack(m, core.MWBAck)
	case core.MWBData:
		d.Ack(m, core.MWBAck)
	}
}

// Build implements proto.Builder.
func (p *Protocol) Build(sys *proto.System, cores []noc.NodeID) []proto.CPU {
	for _, id := range sys.Dirs() {
		d := &dir{}
		d.InitBase(sys, id, d)
	}
	cpus := make([]proto.CPU, len(cores))
	for i, id := range cores {
		c := &cpu{cfg: p.Cfg, st: core.NewWBProc()}
		c.InitBase(sys, id, &sys.Run.Procs[i], c)
		cpus[i] = c
	}
	return cpus
}

// Package so implements the source-ordering write-through coherence protocol
// — the de facto baseline the paper argues against (§3.1). Every
// write-through store is acknowledged by its home directory, and the source
// processor enforces release consistency by stalling each Release until all
// prior write-through stores have been acknowledged (AMBA CHI's Ordered
// Write Observation; CXL.io's UIO write completion).
//
// Under TSO (§6), all stores must be totally ordered, so the FIFO store
// buffer drains serially: a store is transmitted only after its predecessor
// has been acknowledged.
package so

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

// Config tunes the protocol.
type Config struct {
	// StoreBufCap bounds the TSO store buffer; issue stalls when full.
	StoreBufCap int
}

// DefaultConfig matches the simulated processor (64-entry store buffer).
func DefaultConfig() Config { return Config{StoreBufCap: 64} }

// Protocol is a proto.Builder for source ordering.
type Protocol struct {
	Cfg Config
}

// New returns a source-ordering protocol with the default configuration.
func New() *Protocol { return &Protocol{Cfg: DefaultConfig()} }

// Name implements proto.Builder.
func (p *Protocol) Name() string { return "SO" }

// Build implements proto.Builder.
func (p *Protocol) Build(sys *proto.System, cores []noc.NodeID) []proto.CPU {
	for _, id := range sys.Dirs() {
		d := &dir{}
		d.InitBase(sys, id, d)
	}
	cpus := make([]proto.CPU, len(cores))
	for i, id := range cores {
		c := &cpu{cfg: p.Cfg, relSent: make(map[uint64]sim.Time)}
		c.InitBase(sys, id, &sys.Run.Procs[i], c)
		cpus[i] = c
	}
	return cpus
}

// cpu is the source-ordering processor adapter: the ordering decisions
// (when a release, barrier, or ordered atomic may issue) are core.SOProc
// rules shared with the litmus model checker; this type owns timing, stats,
// and obs events plus the TSO store-buffer micro-architecture.
type cpu struct {
	proto.ProcBase
	cfg Config

	st      core.SOProc // outstanding write-through stores (RC mode)
	nextTag uint64      // store tags for ack matching
	// relSent records Release store send times by tag.
	relSent map[uint64]sim.Time
	// wcAddr implements a one-entry write-combining buffer: consecutive
	// Relaxed stores to the same address merge into one wire transaction.
	wcAddr  memsys.Addr
	wcValid bool

	// TSO store buffer: stores queued for serial, in-order drain.
	buf      []proto.Op
	draining bool
}

// Conditions a source-ordered core blocks on.
const (
	// waitDrained: every store acknowledged (core.SOProc's ordering rule).
	waitDrained = proto.WaitProto + iota
	// waitEmpty: the TSO store buffer is empty and every store acknowledged.
	waitEmpty
	// waitBufSpace: the TSO store buffer has a free entry.
	waitBufSpace
)

var (
	drained  = proto.Wait{On: waitDrained, Stall: stats.StallAckWait}
	bufEmpty = proto.Wait{On: waitEmpty, Stall: stats.StallAckWait}
	bufSpace = proto.Wait{On: waitBufSpace, Stall: stats.StallStoreBuf}
)

// Ready implements proto.Adapter.
func (c *cpu) Ready(w proto.Wait) bool {
	switch w.On {
	case waitDrained:
		return c.st.CanIssueOrdered()
	case waitEmpty:
		return len(c.buf) == 0 && c.st.Drained()
	case waitBufSpace:
		return len(c.buf) < c.cfg.StoreBufCap
	}
	panic(fmt.Sprintf("so: unknown wait %d", w.On))
}

// Receive implements proto.Adapter: a core receives only store acks.
func (c *cpu) Receive(m *core.Msg) {
	if m.Kind != core.MSOAck {
		panic(fmt.Sprintf("so: cpu %v got unexpected message %v", c.ID, m.Kind))
	}
	c.onAck(m)
}

// Exec implements proto.Adapter.
func (c *cpu) Exec(op proto.Op) {
	if c.Sys.Mode == proto.TSO {
		c.execTSO(op)
		return
	}
	switch op.Kind {
	case proto.OpStoreWT, proto.OpStoreWB:
		// Under SO, write-back stores in a write-through workload are issued
		// through the same ordered path.
		if op.Ord == proto.Release {
			c.wcValid = false
			if c.Await(drained) {
				c.send(op, true)
				c.Retire()
			}
			return
		}
		if c.wcValid && c.wcAddr == op.Addr {
			// Write-combined: the in-flight transaction absorbs the store.
			c.Retire()
			return
		}
		c.wcAddr, c.wcValid = op.Addr, true
		c.send(op, false)
		c.Retire()
	case proto.OpAtomic:
		// Far atomics are source-ordered like stores; the core additionally
		// blocks on the value response (a true data dependency).
		if (op.Ord == proto.Release || op.Ord == proto.SeqCst) && !c.Await(drained) {
			return
		}
		c.sendAtomic(op)
	case proto.OpBarrier:
		// A release barrier completes when all prior write-through stores
		// are acknowledged; acquire barriers need no store-side handling
		// (§4.4).
		if (op.Ord != proto.Release && op.Ord != proto.SeqCst) || c.Await(drained) {
			c.Retire()
		}
	default:
		panic(fmt.Sprintf("so: unexpected op %v", op))
	}
}

// sendAtomic issues a far atomic and blocks the core on its response.
func (c *cpu) sendAtomic(op proto.Op) {
	c.nextTag++
	c.st.NoteStore()
	home := c.Sys.Map.HomeOf(op.Addr)
	c.Sys.Net.Send(c.ID, home, stats.ClassAtomic, proto.HeaderBytes+op.Size, &core.Msg{
		Kind: core.MSOStore, Src: c.Ix, Addr: uint64(op.Addr), Val: op.Value, Size: op.Size,
		Release: op.Ord == proto.Release, Atomic: true, Tag: c.nextTag,
	})
	c.Block(proto.Wait{On: proto.WaitResp, Arg: c.nextTag, Stall: stats.StallAcquire, Retire: true})
}

func (c *cpu) send(op proto.Op, release bool) {
	c.nextTag++
	c.st.NoteStore()
	class := stats.ClassRelaxedData
	if release {
		class = stats.ClassReleaseData
	}
	home := c.Sys.Map.HomeOf(op.Addr)
	if release {
		c.relSent[c.nextTag] = c.Now()
	}
	c.Sys.Net.Send(c.ID, home, class, proto.HeaderBytes+op.Size, &core.Msg{
		Kind: core.MSOStore, Src: c.Ix, Addr: uint64(op.Addr), Val: op.Value, Size: op.Size,
		Release: release, Tag: c.nextTag,
	})
}

func (c *cpu) onAck(m *core.Msg) {
	c.st.NoteAck()
	if at, ok := c.relSent[m.Tag]; ok {
		lat := c.Now() - at
		c.PS.ReleaseLatency.Add(lat)
		delete(c.relSent, m.Tag)
		if rec := c.Obs; rec.Take() {
			rec.Record(obs.Event{At: c.Now(), Kind: obs.KRelAck,
				Src: c.ID.Obs(), Seq: m.Tag, Dur: lat})
		}
	}
	c.Respond(m.Tag)
	c.Wake()
	if c.Sys.Mode == proto.TSO {
		c.drainNext()
	}
}

// --- TSO mode -----------------------------------------------------------

func (c *cpu) execTSO(op proto.Op) {
	switch op.Kind {
	case proto.OpAtomic:
		// TSO atomics drain the store buffer, execute, and block.
		if c.Await(bufEmpty) {
			c.sendAtomic(op)
		}
	case proto.OpStoreWT, proto.OpStoreWB:
		if c.Await(bufSpace) {
			c.enqueue(op)
			c.Retire()
		}
	case proto.OpBarrier:
		// Any barrier under TSO drains the store buffer.
		if c.Await(bufEmpty) {
			c.Retire()
		}
	default:
		panic(fmt.Sprintf("so: unexpected op %v", op))
	}
}

func (c *cpu) enqueue(op proto.Op) {
	c.buf = append(c.buf, op)
	if !c.draining {
		c.drainNext()
	}
}

// drainNext transmits the store-buffer head; the next entry goes out only
// after the head's ack returns (serial source ordering of all stores).
func (c *cpu) drainNext() {
	if len(c.buf) == 0 {
		c.draining = false
		c.Wake()
		return
	}
	c.draining = true
	op := c.buf[0]
	c.buf = c.buf[1:]
	c.send(op, op.Ord == proto.Release)
	c.Wake() // buffer space freed
}

// dir is the source-ordering directory: commit, then acknowledge.
type dir struct {
	proto.DirBase
}

// Receive implements proto.DirAdapter: every store commits.
func (d *dir) Receive(m *core.Msg) {
	if m.Kind != core.MSOStore {
		panic(fmt.Sprintf("so: dir %v got unexpected message %v", d.ID, m.Kind))
	}
	d.Commit(m)
}

// Committed implements proto.DirAdapter: the store is acknowledged, an
// atomic's ack carrying the prior value.
func (d *dir) Committed(m *core.Msg) {
	if m.Release {
		d.NoteRelCommit(m, m.Tag)
	}
	d.Ack(m, core.MSOAck)
}

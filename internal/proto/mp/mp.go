// Package mp implements the message-passing baseline (§3.2): PCIe-style
// posted write transactions. Writes are never acknowledged; ordering is
// enforced at the *destination* host, but only point-to-point — each
// (source, destination-host) stream commits in FIFO order, with no
// cumulativity across hosts. This is why MP is fast and lean on the wire yet
// cannot provide release consistency for multi-PU programs (the ISA2 litmus
// outcome of Fig. 3 is reachable; see the litmus package).
//
// Barriers are modeled as PCIe-style flushing reads: a zero-byte read to
// every host the core has posted writes to, completing when those writes
// have committed. Under TSO the paper uses totally ordered MP as an upper
// bound for performance and traffic; the wire behaviour is identical to the
// RC mode here.
//
// The ordering decisions — FIFO drain, flush eligibility, sequence
// assignment — are core.MPProc/core.MPOrderer rules shared with the litmus
// model checker; this package owns timing, stats, and obs.
package mp

import (
	"fmt"

	"cord/internal/memsys"
	"cord/internal/noc"
	"cord/internal/obs"
	"cord/internal/proto"
	"cord/internal/proto/core"
	"cord/internal/stats"
)

// Protocol is the proto.Builder for message passing.
type Protocol struct{}

// New returns the message-passing protocol.
func New() *Protocol { return &Protocol{} }

// Name implements proto.Builder.
func (p *Protocol) Name() string { return "MP" }

// orderer is a host's ingress ordering point (core.MPOrderer), shared by
// all slices of the host: the core rule decides commit and flush
// eligibility, and the slices' commit drivers time the commits and the
// flush responses.
type orderer struct {
	st   core.MPOrderer
	dirs []*dir // by tile
}

// dir is a directory slice under MP: pure commit target behind the orderer.
type dir struct {
	proto.DirBase
	ord *orderer
}

// Receive implements proto.DirAdapter.
func (d *dir) Receive(m *core.Msg) {
	switch m.Kind {
	case core.MMPStore:
		d.submit(m)
	case core.MMPFlush:
		// A flushing read, at the host's port slice (tile 0): answered
		// after the commit pipeline drains (one commit latency) once every
		// write it covers has committed; until then it parks in the orderer.
		if d.ord.st.Flush(*m) {
			d.Commit(m)
		}
	default:
		panic(fmt.Sprintf("mp: dir %v got unexpected message %v", d.ID, m.Kind))
	}
}

// submit hands an arrived posted write to the host's ordering point. Writes
// that become committable commit at their own slices in sequence order —
// the arrived one in its own box, parked successors re-boxed — and parked
// flushing reads those commits cover are answered from the port slice.
func (d *dir) submit(m *core.Msg) {
	o := d.ord
	inOrder := o.st.Submit(*m,
		func(w core.Msg) {
			p := m
			if w.Seq != m.Seq {
				c := w
				p = &c
			}
			o.dirs[d.Sys.DirAt(w.Dir).Tile].Commit(p)
		},
		func(f core.Msg) { o.dirs[0].Commit(&f) })
	if !inOrder {
		// Out-of-order arrival: held at the ordering point until the gap fills.
		rec := d.Obs
		rec.DirDepth(o.st.PendingFor(m.Src))
		if rec.Take() {
			rec.Record(obs.Event{At: d.Eng.Now(), Kind: obs.KRetry,
				Src: d.ID.Obs(), Dst: d.Sys.CoreAt(m.Src).Obs(), Class: stats.ClassRelaxedData,
				Seq: m.Seq})
		}
	}
}

// Committed implements proto.DirAdapter: a flushing read completes and an
// atomic returns its prior value; a posted write is not acknowledged.
func (d *dir) Committed(m *core.Msg) {
	switch {
	case m.Kind == core.MMPFlush:
		if rec := d.Obs; rec.Take() {
			rec.Record(obs.Event{At: d.Eng.Now(), Kind: obs.KNotify,
				Src: d.ID.Obs(), Dst: d.Sys.CoreAt(m.Src).Obs(), Seq: m.Tag})
		}
		d.Ack(m, core.MMPFlushOK)
	case m.Atomic:
		d.Ack(m, core.MAtomicResp)
	}
}

// cpu is the MP processor: posts writes, never waits.
type cpu struct {
	proto.ProcBase
	// st assigns per-destination-host sequence numbers (the ordering
	// domains of core.MPProc are hosts here).
	st      core.MPProc
	nextTag uint64
	// flushing counts the barrier's flushing reads still unanswered.
	flushing int
	// buf is the reusable flush fan-out scratch.
	buf []core.Msg
	// wcAddr is a one-entry write-combining buffer (posted writes to the
	// same address merge, as PCIe write-combining does).
	wcAddr  memsys.Addr
	wcValid bool
}

// waitFlushed is the one condition an MP core blocks on besides an atomic's
// response: every flushing read of a barrier has been answered.
const waitFlushed = proto.WaitProto

// Ready implements proto.Adapter.
func (c *cpu) Ready(w proto.Wait) bool {
	if w.On != waitFlushed {
		panic(fmt.Sprintf("mp: unknown wait %d", w.On))
	}
	return c.flushing == 0
}

// Receive implements proto.Adapter.
func (c *cpu) Receive(m *core.Msg) {
	switch m.Kind {
	case core.MMPFlushOK:
		if c.flushing == 0 {
			panic("mp: flush response with no flushing read outstanding")
		}
		if rec := c.Obs; rec.Take() {
			rec.Record(obs.Event{At: c.Now(), Kind: obs.KRelAck,
				Src: c.ID.Obs(), Seq: m.Tag})
		}
		c.flushing--
		c.Wake()
	case core.MAtomicResp:
		if !c.Respond(m.Tag) {
			panic("mp: unknown atomic tag")
		}
	default:
		panic(fmt.Sprintf("mp: cpu %v got unexpected message %v", c.ID, m.Kind))
	}
}

// Exec implements proto.Adapter.
func (c *cpu) Exec(op proto.Op) {
	switch op.Kind {
	case proto.OpStoreWT, proto.OpStoreWB:
		if op.Ord == proto.Relaxed {
			if c.wcValid && c.wcAddr == op.Addr {
				c.Retire()
				return
			}
			c.wcAddr, c.wcValid = op.Addr, true
		} else {
			c.wcValid = false
		}
		home := c.Sys.Map.HomeOf(op.Addr)
		class := stats.ClassRelaxedData
		if op.Ord == proto.Release {
			class = stats.ClassReleaseData
		}
		c.Sys.Net.Send(c.ID, home, class, proto.HeaderBytes+op.Size, &core.Msg{
			Kind: core.MMPStore, Src: c.Ix, Dir: c.Sys.Index(home), Seq: c.st.NextSeq(home.Host),
			Addr: uint64(op.Addr), Val: op.Value, Size: op.Size,
		})
		c.Retire()
	case proto.OpAtomic:
		// Non-posted atomic: ordered in the per-host stream, blocks on the
		// value response.
		c.wcValid = false
		home := c.Sys.Map.HomeOf(op.Addr)
		c.nextTag++
		c.Block(proto.Wait{On: proto.WaitResp, Arg: c.nextTag, Stall: stats.StallAcquire, Retire: true})
		c.Sys.Net.Send(c.ID, home, stats.ClassAtomic, proto.HeaderBytes+op.Size, &core.Msg{
			Kind: core.MMPStore, Src: c.Ix, Dir: c.Sys.Index(home), Seq: c.st.NextSeq(home.Host),
			Addr: uint64(op.Addr), Val: op.Value, Size: op.Size, Atomic: true, Tag: c.nextTag,
		})
	case proto.OpBarrier:
		switch op.Ord {
		case proto.Release, proto.SeqCst:
			c.flushAll()
		default:
			c.Retire()
		}
	default:
		panic(fmt.Sprintf("mp: unexpected op %v", op))
	}
}

// flushAll issues a flushing read to every host this core posted writes to
// (core.MPProc's flush fan-out, ascending host order) and stalls until all
// respond. The stall is taken even when there is nothing to flush, so such
// a barrier still records a zero-length stall.
func (c *cpu) flushAll() {
	c.Block(proto.Wait{On: waitFlushed, Stall: stats.StallRelease, Retire: true})
	c.buf = c.st.FlushTargets(c.Ix, c.buf[:0])
	for _, f := range c.buf {
		c.flushing++
		c.nextTag++
		f.Tag = c.nextTag
		// The ordering domain f.Dir is a host; its port slice is tile 0.
		c.Sys.Net.Send(c.ID, noc.DirID(f.Dir, 0), stats.ClassBarrier, proto.LoadReqBytes, &f)
	}
	c.Wake()
}

// Build implements proto.Builder.
func (p *Protocol) Build(sys *proto.System, cores []noc.NodeID) []proto.CPU {
	cfg := sys.Net.Config()
	orderers := make([]*orderer, cfg.Hosts)
	for h := range orderers {
		orderers[h] = &orderer{st: core.NewMPOrderer(sys.Indices())}
	}
	for _, id := range sys.Dirs() { // host-major, ascending tiles
		d := &dir{ord: orderers[id.Host]}
		d.InitBase(sys, id, d)
		d.ord.dirs = append(d.ord.dirs, d)
	}
	cpus := make([]proto.CPU, len(cores))
	for i, id := range cores {
		c := &cpu{st: core.NewMPProc(cfg.Hosts)}
		c.InitBase(sys, id, &sys.Run.Procs[i], c)
		cpus[i] = c
	}
	return cpus
}

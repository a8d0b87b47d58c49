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
// model checker; this package owns timing, wire formats, stats, and obs.
package mp

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

// Protocol is the proto.Builder for message passing.
type Protocol struct{}

// New returns the message-passing protocol.
func New() *Protocol { return &Protocol{} }

// Name implements proto.Builder.
func (p *Protocol) Name() string { return "MP" }

// mpStore is a posted write transaction. Atomic marks a non-posted far
// fetch-add: it is ordered in the same per-(source, host) stream but the
// destination responds with the prior value.
type mpStore struct {
	Src    noc.NodeID
	Seq    uint64 // per (src, destination-host) sequence number
	Addr   memsys.Addr
	Value  uint64
	Size   int
	Atomic bool
	Tag    uint64
}

// atomicResp returns a far atomic's prior value.
type atomicResp struct {
	Tag uint64
	Old uint64
}

// flushReq asks the destination host to report when every posted write from
// Src up to and including Seq has committed (a flushing read).
type flushReq struct {
	Src noc.NodeID
	Seq uint64
	Tag uint64
}

// flushResp completes a flushReq.
type flushResp struct {
	Tag uint64
}

// orderer adapts a host's ingress ordering point (core.MPOrderer) to the
// simulator: the core rule decides commit and flush eligibility; this type
// schedules the commits, answers flushing reads on the wire, and records
// observability events. One orderer is shared by all slices of a host.
type orderer struct {
	sys   *proto.System
	host  int
	tiles int
	// eng and obs are the host shard's engine and recorder (see
	// proto.ProcBase); the orderer is host-resident state.
	eng  *sim.Engine
	obs  *obs.Recorder
	st   core.MPOrderer
	dirs map[int]*dir // by slice
	// flights correlates a parked flushing read back to its wire request.
	// Tags are per-CPU counters, so the key must include the source.
	flights map[flightKey]*flushReq
}

type flightKey struct {
	src int
	tag uint64
}

func newOrderer(sys *proto.System, host int) *orderer {
	nc := sys.Net.Config()
	return &orderer{
		sys:     sys,
		host:    host,
		eng:     sys.EngOf(host),
		obs:     sys.ObsOf(host),
		tiles:   nc.TilesPerHost,
		st:      core.NewMPOrderer(nc.Hosts * nc.TilesPerHost),
		dirs:    make(map[int]*dir),
		flights: make(map[flightKey]*flushReq),
	}
}

// pix is the dense index of a processor for the core rules.
func (o *orderer) pix(id noc.NodeID) int { return id.Host*o.tiles + id.Tile }

// submit hands an arrived posted write to the ordering point.
func (o *orderer) submit(m *mpStore, at *dir) {
	cm := core.Msg{Kind: core.MMPStore, Src: o.pix(m.Src), Dir: at.ID.Tile,
		Seq: m.Seq, Addr: uint64(m.Addr), Val: m.Value, Size: m.Size,
		Atomic: m.Atomic, Tag: m.Tag}
	inOrder := o.st.Submit(cm,
		func(w core.Msg) { o.dirs[w.Dir].commit(w) },
		func(f core.Msg) { o.respondFlush(o.takeFlight(f)) })
	if !inOrder {
		// Out-of-order arrival: held at the ordering point until the gap fills.
		rec := o.obs
		rec.DirDepth(o.st.PendingFor(cm.Src))
		if rec.Take() {
			rec.Record(obs.Event{At: o.eng.Now(), Kind: obs.KRetry,
				Src: at.ID.Obs(), Dst: m.Src.Obs(), Class: stats.ClassRelaxedData,
				Seq: m.Seq})
		}
	}
}

// takeFlight recovers the wire request for a now-ready parked flush.
func (o *orderer) takeFlight(f core.Msg) *flushReq {
	k := flightKey{src: f.Src, tag: f.Tag}
	w, ok := o.flights[k]
	if !ok {
		panic(fmt.Sprintf("mp: served flush with unknown tag %d at host %d", f.Tag, o.host))
	}
	delete(o.flights, k)
	return w
}

// respondFlush completes a flushing read after the commit pipeline drains
// (one LLC commit latency), from the host's port slice.
func (o *orderer) respondFlush(f *flushReq) {
	o.eng.Schedule(o.sys.Timing.CommitLatency(), func() {
		if rec := o.obs; rec.Take() {
			rec.Record(obs.Event{At: o.eng.Now(), Kind: obs.KNotify,
				Src: noc.DirID(o.host, 0).Obs(), Dst: f.Src.Obs(), Seq: f.Tag})
		}
		o.sys.Net.Send(noc.DirID(o.host, 0), f.Src, stats.ClassAck,
			proto.AckBytes, &flushResp{Tag: f.Tag})
	})
}

func (o *orderer) flush(f *flushReq) {
	cm := core.Msg{Kind: core.MMPFlush, Src: o.pix(f.Src), Seq: f.Seq, Tag: f.Tag}
	if o.st.Flush(cm) {
		o.respondFlush(f)
		return
	}
	o.flights[flightKey{src: cm.Src, tag: f.Tag}] = f
}

// dir is a directory slice under MP: pure commit target behind the orderer.
type dir struct {
	proto.DirBase
	ord *orderer
}

func (d *dir) handle(_ noc.NodeID, payload any) {
	switch m := payload.(type) {
	case *proto.LoadReq:
		d.HandleLoadReq(m)
	case *mpStore:
		d.ord.submit(m, d)
	case *flushReq:
		d.ord.flush(m)
	default:
		panic(fmt.Sprintf("mp: dir %v got unexpected message %T", d.ID, payload))
	}
}

func (d *dir) commit(m core.Msg) {
	d.Eng.Schedule(d.Sys.Timing.CommitLatency(), func() {
		if m.Atomic {
			old := d.FetchAdd(memsys.Addr(m.Addr), m.Val)
			src := noc.CoreID(m.Src/d.ord.tiles, m.Src%d.ord.tiles)
			d.Sys.Net.Send(d.ID, src, stats.ClassAtomicResp, proto.AckBytes+8,
				&atomicResp{Tag: m.Tag, Old: old})
			return
		}
		d.CommitValue(memsys.Addr(m.Addr), m.Val)
	})
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

func (c *cpu) handle(_ noc.NodeID, payload any) {
	switch m := payload.(type) {
	case *proto.LoadResp:
		c.HandleLoadResp(m)
	case *flushResp:
		if c.flushing == 0 {
			panic("mp: flush response with no flushing read outstanding")
		}
		if rec := c.Obs; rec.Take() {
			rec.Record(obs.Event{At: c.Now(), Kind: obs.KRelAck,
				Src: c.ID.Obs(), Seq: m.Tag})
		}
		c.flushing--
		c.Wake()
	case *atomicResp:
		if !c.Respond(m.Tag) {
			panic("mp: unknown atomic tag")
		}
	default:
		panic(fmt.Sprintf("mp: cpu %v got unexpected message %T", c.ID, payload))
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
		c.Sys.Net.Send(c.ID, home, class, proto.HeaderBytes+op.Size, &mpStore{
			Src: c.ID, Seq: c.st.NextSeq(home.Host), Addr: op.Addr,
			Value: op.Value, Size: op.Size,
		})
		c.Retire()
	case proto.OpAtomic:
		// Non-posted atomic: ordered in the per-host stream, blocks on the
		// value response.
		c.wcValid = false
		home := c.Sys.Map.HomeOf(op.Addr)
		c.nextTag++
		c.Block(proto.Wait{On: proto.WaitResp, Arg: c.nextTag, Stall: stats.StallAcquire, Retire: true})
		c.Sys.Net.Send(c.ID, home, stats.ClassAtomic, proto.HeaderBytes+op.Size, &mpStore{
			Src: c.ID, Seq: c.st.NextSeq(home.Host), Addr: op.Addr, Value: op.Value,
			Size: op.Size, Atomic: true, Tag: c.nextTag,
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
	c.buf = c.st.FlushTargets(0, c.buf[:0])
	for _, f := range c.buf {
		c.flushing++
		c.nextTag++
		c.Sys.Net.Send(c.ID, noc.DirID(f.Dir, 0), stats.ClassBarrier,
			proto.LoadReqBytes, &flushReq{Src: c.ID, Seq: f.Seq, Tag: c.nextTag})
	}
	c.Wake()
}

// Build implements proto.Builder.
func (p *Protocol) Build(sys *proto.System, cores []noc.NodeID) []proto.CPU {
	cfg := sys.Net.Config()
	orderers := make([]*orderer, cfg.Hosts)
	for h := range orderers {
		orderers[h] = newOrderer(sys, h)
	}
	for _, id := range sys.Dirs() {
		d := &dir{ord: orderers[id.Host]}
		d.InitBase(sys, id)
		orderers[id.Host].dirs[id.Tile] = d
		sys.Net.Register(id, d.handle)
	}
	cpus := make([]proto.CPU, len(cores))
	for i, id := range cores {
		c := &cpu{st: core.NewMPProc(cfg.Hosts)}
		c.InitBase(sys, id, &sys.Run.Procs[i], c)
		sys.Net.Register(id, c.handle)
		cpus[i] = c
	}
	return cpus
}

package proto

import (
	"fmt"
	"slices"

	"cord/internal/memsys"
	"cord/internal/noc"
	"cord/internal/obs"
	"cord/internal/proto/core"
	"cord/internal/sim"
	"cord/internal/stats"
)

// DirAdapter is a protocol's half of a directory slice. DirBase takes every
// message off the wire, runs every LLC access the slice makes (Commit,
// Lookup, a LineWrite's commit) and calls back into the adapter at two
// points: when a message arrives, and when its LLC access completes.
type DirAdapter interface {
	// Receive handles an arrived message other than an acquire poll.
	Receive(m *core.Msg)
	// Committed runs when m's LLC access completes, after DirBase applied
	// its write. It records the protocol's commit event and sends any reply,
	// usually by rewriting m in place (Reply, Ack).
	Committed(m *core.Msg)
}

// LineWrite is a dirty-line write-back (the WB baseline's): the one wire
// payload that is not a bare *core.Msg. It adds the line's dirty words
// (addr -> value) to the message, because the model checker's Msg carries
// one word per line and must stay comparable.
type LineWrite struct {
	core.Msg
	Words map[uint64]uint64
}

// DirBase is the protocol-independent half of a directory slice: the
// functional LLC contents, the commit driver that times every LLC access,
// and the waiter list that implements acquire-side polling. Protocol
// directory types embed it.
type DirBase struct {
	Sys *System
	ID  noc.NodeID
	Ix  int // dense index (System.Index)
	// Store is the slice's LLC contents.
	Store *memsys.Store
	// Eng and Obs are the slice's host-shard engine and recorder, cached at
	// InitBase (see ProcBase).
	Eng *sim.Engine
	Obs *obs.Recorder

	adapter DirAdapter
	fire    sim.DeliverFunc // complete, bound once so scheduling it does not allocate
	waiters map[memsys.Addr][]*core.Msg
}

// InitBase prepares the embedded fields, registers the slice's network
// handler, and registers its store for post-run memory read-back
// (System.ReadMem). a is the protocol half of the slice.
func (d *DirBase) InitBase(sys *System, id noc.NodeID, a DirAdapter) {
	d.Sys = sys
	d.ID = id
	d.Ix = sys.Index(id)
	d.Eng = sys.EngOf(id.Host)
	d.Obs = sys.ObsOf(id.Host)
	d.Store = memsys.NewStore()
	d.adapter = a
	d.fire = d.complete
	d.waiters = make(map[memsys.Addr][]*core.Msg)
	if sys.stores != nil {
		sys.stores[id] = d.Store
	}
	sys.Net.Register(id, d.handle)
}

// handle takes a message off the wire: an acquire poll is looked up, a line
// write-back committed, and anything else handed to the adapter.
func (d *DirBase) handle(_ noc.NodeID, payload any) {
	switch m := payload.(type) {
	case *core.Msg:
		if m.Kind == core.MLoadReq {
			d.Lookup(m)
			return
		}
		d.adapter.Receive(m)
	case *LineWrite:
		d.Eng.ScheduleDeliver(d.Sys.Timing.CommitLatency(), d.fire, 0, m)
	default:
		panic(fmt.Sprintf("proto: dir %v got unexpected payload %T", d.ID, payload))
	}
}

// Commit schedules m's LLC write one commit latency out. When it fires, the
// driver applies the write — a monotonic CommitValue, a FetchAdd whose prior
// value replaces m.Val, or nothing for a barrier or a flushing read — and
// then calls the adapter's Committed.
func (d *DirBase) Commit(m *core.Msg) {
	d.Eng.ScheduleDeliver(d.Sys.Timing.CommitLatency(), d.fire, 0, m)
}

// Lookup schedules a read-only LLC access one LLC latency out: an acquire
// poll (MLoadReq) is answered then or parked until a commit satisfies it;
// any other lookup (WB's ownership request) goes to Committed.
func (d *DirBase) Lookup(m *core.Msg) {
	d.Eng.ScheduleDeliver(d.Sys.Timing.LLCCycles, d.fire, 0, m)
}

// complete finishes an LLC access scheduled by Commit or Lookup.
func (d *DirBase) complete(_ uint64, payload any) {
	m, ok := payload.(*core.Msg)
	switch {
	case !ok:
		w := payload.(*LineWrite)
		addrs := make([]uint64, 0, len(w.Words))
		for a := range w.Words {
			addrs = append(addrs, a)
		}
		slices.Sort(addrs)
		for _, a := range addrs {
			d.CommitValue(memsys.Addr(a), w.Words[a])
		}
		m = &w.Msg
	case m.Kind == core.MLoadReq:
		if val := d.Store.Read(memsys.Addr(m.Addr)); val >= m.Val {
			d.respond(m, val)
		} else {
			d.waiters[memsys.Addr(m.Addr)] = append(d.waiters[memsys.Addr(m.Addr)], m)
		}
		return
	case m.Barrier || m.Kind == core.MMPFlush || m.Kind == core.MWBGetM:
	case m.Atomic:
		m.Val = d.FetchAdd(memsys.Addr(m.Addr), m.Val)
	default:
		d.CommitValue(memsys.Addr(m.Addr), m.Val)
	}
	d.adapter.Committed(m)
}

// Reply sends m back to its issuing core, rewritten in place as kind: the
// request's box carries the reply.
func (d *DirBase) Reply(m *core.Msg, kind core.MsgKind, class stats.MsgClass, bytes int) {
	m.Kind = kind
	d.Sys.Net.Send(d.ID, d.Sys.CoreAt(m.Src), class, bytes, m)
}

// Ack acknowledges a committed store as kind: a control message, or for an
// atomic a response carrying the prior value in Val.
func (d *DirBase) Ack(m *core.Msg, kind core.MsgKind) {
	if m.Atomic {
		d.Reply(m, kind, stats.ClassAtomicResp, AckBytes+8)
		return
	}
	d.Reply(m, kind, stats.ClassAck, AckBytes)
}

// NoteRelCommit records a sampled KRelCommit event for m's release, keyed
// by seq (an epoch or a tag).
func (d *DirBase) NoteRelCommit(m *core.Msg, seq uint64) {
	if rec := d.Obs; rec.Take() {
		rec.Record(obs.Event{At: d.Eng.Now(), Kind: obs.KRelCommit,
			Src: d.ID.Obs(), Dst: d.Sys.CoreAt(m.Src).Obs(), Seq: seq, Addr: m.Addr})
	}
}

// CommitValue writes v to addr in the LLC slice, monotonically (flags are
// counters; a late-arriving older store must not regress the value), and
// wakes any satisfied pollers. Commit models the latency before it.
func (d *DirBase) CommitValue(addr memsys.Addr, v uint64) {
	if cur := d.Store.Read(addr); v > cur {
		d.Store.Write(addr, v)
	}
	if rec := d.Obs; rec.Take() {
		rec.Record(obs.Event{At: d.Eng.Now(), Kind: obs.KCommit,
			Src: d.ID.Obs(), Addr: uint64(addr), Seq: v})
	}
	d.wake(addr)
}

// FetchAdd atomically adds to the 8-byte word at addr and returns the prior
// value, waking any satisfied pollers. Unlike CommitValue it is not
// monotonic-clamped: atomic updates are totally ordered at the directory by
// construction, so ordinary read-modify-write semantics apply.
func (d *DirBase) FetchAdd(addr memsys.Addr, add uint64) uint64 {
	old := d.Store.Read(addr)
	d.Store.Write(addr, old+add)
	d.wake(addr)
	return old
}

// wake answers the parked polls on addr that its value now satisfies.
func (d *DirBase) wake(addr memsys.Addr) {
	ws := d.waiters[addr]
	if len(ws) == 0 {
		return
	}
	val := d.Store.Read(addr)
	rest := ws[:0]
	for _, m := range ws {
		if val >= m.Val {
			d.respond(m, val)
		} else {
			rest = append(rest, m)
		}
	}
	if len(rest) == 0 {
		delete(d.waiters, addr)
	} else {
		d.waiters[addr] = rest
	}
}

// respond answers a poll (whose Val is the value it waits for) with val.
func (d *DirBase) respond(m *core.Msg, val uint64) {
	m.Val = val
	d.Reply(m, core.MLoadResp, stats.ClassLoadResp, LoadRespBytes)
}

package proto

import (
	"fmt"

	"cord/internal/noc"
	"cord/internal/obs"
	"cord/internal/proto/core"
	"cord/internal/sim"
	"cord/internal/stats"
)

// IssueCycles is the minimum core occupancy per memory operation: the store
// pipeline issues at most one operation per cycle.
const IssueCycles = 1

// Adapter is a protocol's half of a processor core. ProcBase executes
// Compute and Acquire ops itself and hands every store, barrier and atomic
// to Exec, which ends the op one of two ways: Retire (the core may issue the
// next op) or Block (the core waits on a named condition). Receive handles
// every arrived message but a poll response; when it changes state a wait
// may depend on, it calls Wake, which asks Ready.
type Adapter interface {
	// Exec performs op and either retires it or blocks the core. An op
	// blocked on a wait that does not retire it is passed to Exec again,
	// from the top, once the wait clears.
	Exec(op Op)
	// Ready reports whether the protocol-defined wait w has cleared.
	Ready(w Wait) bool
	// Receive handles an arrived message other than a poll response.
	Receive(m *core.Msg)
}

// WaitOn names what a blocked core waits for. The base owns the values
// below WaitProto; each protocol numbers its own conditions from WaitProto.
type WaitOn uint8

const (
	waitNone WaitOn = iota
	// waitLoad is an acquire's poll response tagged Wait.Arg. Unlike every
	// other wait it is not bracketed by stall events in the trace: the op's
	// own issue and done events already bracket it.
	waitLoad
	// WaitResp is the response tagged Wait.Arg to a request the op sent (a
	// far atomic's old value), delivered through Respond.
	WaitResp
	// WaitProto is the first protocol-defined condition, answered by
	// Adapter.Ready.
	WaitProto
)

// Wait is what a blocked core waits on: a condition and its operand
// (directory index, epoch, tag or count), the stall category the blocked
// time is charged to, and what happens when the wait clears — the op
// retires, or it is re-executed from the top and re-checks every guard, as
// the model checker's processor step does.
type Wait struct {
	On     WaitOn
	Arg    uint64
	Stall  stats.StallKind
	Retire bool
}

// ProcBase sequences a core's operation stream: it executes Compute and
// Acquire ops itself and delegates stores, barriers and atomics to the
// owning protocol's Adapter. Ops are pulled one at a time from an OpSource —
// a static Program is just the trivial source — so the stream may be
// produced reactively, at simulated time, by a workload that decides each op
// only once the previous one retired. At most one op is in flight, so a core
// blocks on at most one Wait. Protocol processor types embed it.
type ProcBase struct {
	Sys *System
	ID  noc.NodeID
	Ix  int // dense index (System.Index)
	PS  *stats.ProcStats
	// Eng and Obs are the core's host-shard engine and recorder, cached at
	// InitBase so the hot path never routes through Sys (which in a
	// partitioned system would alias another shard's clock).
	Eng *sim.Engine
	Obs *obs.Recorder

	adapter Adapter
	step    func() // Step, bound once so rescheduling it does not allocate

	src        OpSource
	pending    Op
	hasPending bool
	seq        uint64
	done       bool
	nextTag    uint64

	// The op in flight and its trace state.
	op       Op
	opSeq    uint64
	issued   sim.Time
	opTraced bool

	// The wait the op is blocked on (On == waitNone while it runs), when it
	// began, and whether its stall is traced.
	wait       Wait
	waitStart  sim.Time
	waitTraced bool
}

// InitBase prepares the embedded fields and registers the core's network
// handler; a is the protocol half of the core.
func (p *ProcBase) InitBase(sys *System, id noc.NodeID, ps *stats.ProcStats, a Adapter) {
	p.Sys = sys
	p.ID = id
	p.Ix = sys.Index(id)
	p.PS = ps
	p.Eng = sys.EngOf(id.Host)
	p.Obs = sys.ObsOf(id.Host)
	p.adapter = a
	p.step = p.Step
	sys.Net.Register(id, p.handle)
}

// handle takes a message off the wire: a poll response resumes the acquire
// waiting on it, and anything else goes to the adapter.
func (p *ProcBase) handle(_ noc.NodeID, payload any) {
	m := payload.(*core.Msg)
	if m.Kind != core.MLoadResp {
		p.adapter.Receive(m)
	} else if !p.respond(waitLoad, m.Tag) {
		panic(fmt.Sprintf("proto: %v got a poll response with unknown tag %d", p.ID, m.Tag))
	}
}

// Start begins executing a static program (the trivial OpSource).
func (p *ProcBase) Start(prog Program) { p.StartSource(prog.Source()) }

// StartSource begins pulling and executing ops from src. The first op is
// pulled eagerly: an immediately-exhausted source retires the core without
// scheduling any engine event, exactly as an empty Program always has.
func (p *ProcBase) StartSource(src OpSource) {
	p.src = src
	p.seq = 0
	p.hasPending = false
	p.done = false
	if a, ok := src.(CoreAttachable); ok {
		a.AttachCore(p.ID, p.Eng, p.Obs)
	}
	op, ok := src.Next(p.Eng.Now())
	if !ok {
		p.done = true
		p.PS.Finished = p.Eng.Now()
		return
	}
	p.pending, p.hasPending = op, true
	p.Eng.Schedule(0, p.step)
}

// Done reports whether the operation stream has retired.
func (p *ProcBase) Done() bool { return p.done }

// Step executes the next op — the one stashed by StartSource, or freshly
// pulled from the source now that the previous op has retired.
func (p *ProcBase) Step() {
	var op Op
	if p.hasPending {
		op, p.hasPending = p.pending, false
	} else {
		var ok bool
		op, ok = p.src.Next(p.Eng.Now())
		if !ok {
			if !p.done {
				p.done = true
				p.PS.Finished = p.Eng.Now()
			}
			return
		}
	}
	p.op, p.opSeq, p.opTraced = op, p.seq, false
	p.seq++
	p.PS.Ops++
	if rec := p.Obs; rec.Take() {
		// One sampling decision covers the op's whole lifecycle: issue now,
		// done when it retires. Compute ops are a single issue event
		// carrying their (known) duration.
		p.issued = p.Eng.Now()
		ev := obs.Event{At: p.issued, Kind: obs.KOpIssue, Src: p.ID.Obs(), Seq: p.opSeq,
			Addr: uint64(op.Addr), Op: uint8(op.Kind), Ord: uint8(op.Ord)}
		if op.Kind == OpCompute {
			ev.Dur = op.Cycles
		}
		rec.Record(ev)
		p.opTraced = op.Kind != OpCompute
	}
	switch op.Kind {
	case OpCompute:
		p.PS.ComputeCyc += op.Cycles
		p.Eng.Schedule(op.Cycles, p.step)
	case OpAcquire:
		// Poll the flag's home directory and block until it answers.
		tag := p.nextTag
		p.nextTag++
		p.Block(Wait{On: waitLoad, Arg: tag, Stall: stats.StallAcquire, Retire: true})
		home := p.Sys.Map.HomeOf(op.Addr)
		p.Sys.Net.Send(p.ID, home, stats.ClassLoadReq, LoadReqBytes,
			&core.Msg{Kind: core.MLoadReq, Src: p.Ix, Addr: uint64(op.Addr), Val: op.Value, Tag: tag})
	case OpStoreWT, OpStoreWB, OpBarrier, OpAtomic:
		if op.Kind != OpBarrier {
			if op.Ord == Release {
				p.PS.Releases++
			} else {
				p.PS.Relaxed++
			}
		}
		p.adapter.Exec(op)
	default:
		panic(fmt.Sprintf("proto: unknown op kind %v", op.Kind))
	}
}

// Retire completes the op in flight; the core issues the next op
// IssueCycles later.
func (p *ProcBase) Retire() {
	if p.opTraced {
		now := p.Eng.Now()
		p.Obs.Record(obs.Event{At: now, Kind: obs.KOpDone, Src: p.ID.Obs(),
			Seq: p.opSeq, Addr: uint64(p.op.Addr), Dur: now - p.issued,
			Op: uint8(p.op.Kind), Ord: uint8(p.op.Ord)})
	}
	p.Eng.Schedule(IssueCycles, p.step)
}

// RetireDualIssue retires a store that issues alongside its predecessor in
// the same cycle (a write-back store hit): the next op starts now, and the
// op records no done event — its issue event is its whole trace.
func (p *ProcBase) RetireDualIssue() { p.Eng.Schedule(0, p.step) }

// Block parks the op in flight until w clears, charging the wait from now
// to w.Stall. When tracing, the stall is bracketed by KStallBegin/KStallEnd
// events under one sampling decision, taken here.
func (p *ProcBase) Block(w Wait) {
	if p.wait.On != waitNone {
		panic(fmt.Sprintf("proto: core %v blocked twice", p.ID))
	}
	p.wait, p.waitStart, p.waitTraced = w, p.Eng.Now(), false
	if w.On != waitLoad && p.Obs.Take() {
		p.waitTraced = true
		p.Obs.Record(obs.Event{At: p.waitStart, Kind: obs.KStallBegin,
			Src: p.ID.Obs(), Seq: uint64(w.Stall)})
	}
}

// Await reports whether the protocol condition w has already cleared; if
// not, it blocks the core on w and reports false.
func (p *ProcBase) Await(w Wait) bool {
	if p.adapter.Ready(w) {
		return true
	}
	p.Block(w)
	return false
}

// Wake resumes the core if it is blocked on a protocol condition that has
// cleared. Message handlers call it after every state change a wait may
// depend on; for a running core it does nothing.
func (p *ProcBase) Wake() {
	if p.wait.On >= WaitProto && p.adapter.Ready(p.wait) {
		p.resume()
	}
}

// Respond delivers the response tagged tag, resuming the core if it is
// blocked on exactly that response (WaitResp), and reports whether it was.
func (p *ProcBase) Respond(tag uint64) bool { return p.respond(WaitResp, tag) }

func (p *ProcBase) respond(on WaitOn, tag uint64) bool {
	if p.wait.On != on || p.wait.Arg != tag {
		return false
	}
	p.resume()
	return true
}

// resume ends the wait: it charges the stall, closes its trace bracket, and
// retires or re-executes the op.
func (p *ProcBase) resume() {
	w := p.wait
	p.wait = Wait{}
	now := p.Eng.Now()
	d := now - p.waitStart
	p.PS.AddStall(w.Stall, d)
	p.Obs.AddStall(w.Stall, d)
	if p.waitTraced {
		p.Obs.Record(obs.Event{At: now, Kind: obs.KStallEnd,
			Src: p.ID.Obs(), Seq: uint64(w.Stall), Dur: d})
	}
	if w.Retire {
		p.Retire()
	} else {
		p.adapter.Exec(p.op)
	}
}

// Now is shorthand for the engine clock.
func (p *ProcBase) Now() sim.Time { return p.Eng.Now() }

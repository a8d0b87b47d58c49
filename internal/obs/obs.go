// Package obs is the simulator's protocol-event observability layer: a
// low-overhead, optionally-sampled structured event stream plus an
// always-complete metrics registry. It lets a run be followed one message or
// one transaction at a time — store issued at a core, hops through the NoC,
// ordered at a directory, acknowledged back — where internal/stats only
// surfaces end-of-run aggregates.
//
// The layer is wired through the simulation engine, the NoC, and the
// processor/directory sides of every protocol, but costs nothing when off:
// a nil *Recorder is the disabled state, every method is nil-safe, and the
// disabled path performs no allocation (verified by BenchmarkObsNilRecorder
// in the repository root). Sampling is deterministic (counter-based, never
// PRNG-based) so enabling tracing cannot perturb simulation results, and two
// identical seeds always produce identical event streams — a property the
// determinism tests in internal/exp assert.
//
// Exporters (export.go) render the captured events as JSONL or as Chrome
// trace_event JSON viewable in Perfetto (https://ui.perfetto.dev).
package obs

import (
	"fmt"
	"sync"

	"cord/internal/sim"
	"cord/internal/stats"
)

// Kind labels a structured event.
type Kind uint8

// Event kinds. Message-hop kinds (Send, Link, Deliver) are emitted by the
// NoC; transaction kinds by the processor engines; ordering kinds by the
// directory engines.
const (
	// KSend: a message was enqueued at its source node. Class/Bytes describe
	// it; Dur is the full source-to-destination latency (including
	// serialization queueing and jitter) and Wait the egress-port queueing.
	KSend Kind = iota
	// KLink: an inter-host message entered the switch link after waiting
	// Wait cycles for the egress port.
	KLink
	// KDeliver: the message was handed to the destination node's handler.
	KDeliver
	// KRetry: a directory buffered/recycled a message it cannot act on yet
	// (CORD's "retry later" network buffer; MP's out-of-order arrival hold).
	KRetry
	// KStallBegin / KStallEnd bracket a processor stall; Seq is the
	// stats.StallKind and KStallEnd.Dur the stalled cycles.
	KStallBegin
	KStallEnd
	// KOpIssue / KOpDone bracket one program operation: the per-transaction
	// lifecycle keyed by (core, op-seq). Seq is the core's op index, Op/Ord
	// the operation kind and ordering annotation. For compute ops only
	// KOpIssue is emitted, with Dur preset to the compute cycles.
	KOpIssue
	KOpDone
	// KOrdered: a Relaxed store was counted (directory-ordered) at its home
	// directory. Seq is the issuing core's epoch.
	KOrdered
	// KRelCommit: a Release store committed at a directory. Seq is its epoch.
	KRelCommit
	// KRelAck: a Release acknowledgment (the epoch's last one) was consumed
	// at the issuing core. Seq is the epoch, Dur the issue-to-ack latency
	// when known.
	KRelAck
	// KCommit: a value became visible at an LLC slice. Addr is the address.
	KCommit
	// KNotify: a CORD inter-directory notification (or an MP flush response)
	// was forwarded. Seq is the epoch/tag.
	KNotify
	// KReqDone: a service-level request completed at the core serving it
	// (emitted by pull-based workload sources, not by protocols). Seq is the
	// core-local request id, Op the request class (ReqGet/ReqPut), Dur the
	// arrival-to-completion latency in cycles.
	KReqDone
	numKinds
)

var kindNames = [numKinds]string{
	"send", "link", "deliver", "retry", "stall-begin", "stall-end",
	"op-issue", "op-done", "ordered", "rel-commit", "rel-ack", "commit",
	"notify", "req-done",
}

// Service-level request classes (Event.Op of a KReqDone event, and the index
// into Metrics.ReqLatency).
const (
	ReqGet = iota
	ReqPut
	NumReqKinds
)

var reqKindNames = [NumReqKinds]string{"get", "put"}

// ReqKindName names a request class ("get"/"put").
func ReqKindName(k int) string {
	if k < 0 || k >= NumReqKinds {
		return fmt.Sprintf("req(%d)", k)
	}
	return reqKindNames[k]
}

func (k Kind) String() string {
	if int(k) >= len(kindNames) {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return kindNames[k]
}

// Node identifies an event endpoint: a core or a directory slice. It mirrors
// noc.NodeID without importing it (obs is a leaf package; the NoC converts).
type Node struct {
	Host int
	Tile int
	Dir  bool
}

// String renders "c<host>.<tile>" for cores and "d<host>.<tile>" for
// directory slices — the compact form the JSONL exporter writes.
func (n Node) String() string {
	k := byte('c')
	if n.Dir {
		k = 'd'
	}
	return fmt.Sprintf("%c%d.%d", k, n.Host, n.Tile)
}

// Event is one structured protocol event. Field meaning is kind-dependent
// (see the Kind constants); unused fields are zero.
type Event struct {
	At    sim.Time
	Kind  Kind
	Src   Node
	Dst   Node
	Class stats.MsgClass
	Bytes int
	Seq   uint64   // epoch, op index, or tag
	Addr  uint64   // memory address (KCommit, KOrdered)
	Dur   sim.Time // latency/duration
	Wait  sim.Time // queueing share of Dur (KSend/KLink)
	Op    uint8    // proto op kind (KOpIssue/KOpDone)
	Ord   uint8    // ordering annotation (KOpIssue/KOpDone)
}

// Sink receives recorded events. Implementations must not retain pointers
// into the event (it is a value) and must be deterministic: the recorder is
// invoked in simulation order.
type Sink interface {
	Record(Event)
}

// MemSink buffers events in memory, for tests, determinism diffing, and
// post-run export.
type MemSink struct {
	Events []Event
}

// Record implements Sink.
func (s *MemSink) Record(ev Event) { s.Events = append(s.Events, ev) }

// FirstDiff describes where two event streams first diverge: the index and
// both sides of the first differing event, or the count mismatch when one
// stream is a prefix of the other. It returns "" for identical streams.
func FirstDiff(a, b []Event) string {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("first divergence at event %d:\n  a: %+v\n  b: %+v", i, a[i], b[i])
		}
	}
	if len(a) != len(b) {
		return fmt.Sprintf("event counts differ: %d vs %d (first %d identical)", len(a), len(b), n)
	}
	return ""
}

// Recorder is the observability handle threaded through the simulator. A nil
// *Recorder is the disabled state: every method short-circuits without
// touching memory, so the hot paths pay one predictable branch.
type Recorder struct {
	sink   Sink
	mem    *MemSink // non-nil iff sink is the built-in memory sink
	m      *Metrics
	mu     *sync.Mutex // guards m after ShareMetrics; nil = single-goroutine
	sample uint64
	n      uint64
}

// New returns a recorder that buffers every event in memory and keeps a full
// metrics registry.
func New() *Recorder {
	mem := &MemSink{}
	return &Recorder{sink: mem, mem: mem, m: NewMetrics(), sample: 1}
}

// NewMetricsOnly returns a recorder that keeps the metrics registry but
// records no events (Take always reports false).
func NewMetricsOnly() *Recorder { return &Recorder{m: NewMetrics(), sample: 1} }

// NewStreaming returns a recorder that forwards events to sink instead of
// buffering them (for very large runs exported as they happen).
func NewStreaming(sink Sink) *Recorder {
	return &Recorder{sink: sink, m: NewMetrics(), sample: 1}
}

// SetSample makes Take report true once every n calls (1-in-n deterministic
// sampling of traced transactions). n <= 1 records everything. Metrics are
// never sampled — they stay complete regardless.
func (r *Recorder) SetSample(n int) {
	if r == nil {
		return
	}
	if n < 1 {
		n = 1
	}
	r.sample = uint64(n)
}

// Sample returns the configured sampling divisor.
func (r *Recorder) Sample() int {
	if r == nil {
		return 1
	}
	return int(r.sample)
}

// Enabled reports whether the recorder exists at all.
func (r *Recorder) Enabled() bool { return r != nil }

// Take reports whether the next traced transaction should record events.
// Call it once per transaction (one message, one op, one stall) and emit all
// of that transaction's events under a single Take, so sampled traces keep
// whole lifecycles rather than disjoint fragments. Deterministic: a pure
// counter, no randomness.
func (r *Recorder) Take() bool {
	if r == nil || r.sink == nil {
		return false
	}
	if r.sample <= 1 {
		return true
	}
	r.n++
	return r.n%r.sample == 1
}

// Record appends one event. Callers normally gate on Take; Record itself is
// nil-safe and unconditional so lifecycle-completion events (the Deliver of
// a sampled Send) can be emitted from continuations.
func (r *Recorder) Record(ev Event) {
	if r == nil || r.sink == nil {
		return
	}
	r.sink.Record(ev)
}

// Events returns the buffered event stream (nil for streaming or
// metrics-only recorders).
func (r *Recorder) Events() []Event {
	if r == nil || r.mem == nil {
		return nil
	}
	return r.mem.Events
}

// Metrics returns the registry (nil when disabled).
func (r *Recorder) Metrics() *Metrics {
	if r == nil {
		return nil
	}
	return r.m
}

// ShareMetrics makes the metrics registry safe to read concurrently with a
// running simulation: updates and MetricsSnapshot serialize on an internal
// mutex from now on. The live introspection server calls this so /metrics can
// scrape mid-run; single-goroutine users (the default) pay nothing.
func (r *Recorder) ShareMetrics() {
	if r == nil || r.mu != nil {
		return
	}
	r.mu = &sync.Mutex{}
}

// MetricsSnapshot returns a point-in-time copy of the registry, consistent
// even while a simulation is updating it (requires ShareMetrics for that
// case). Metrics is a value type — fixed arrays and scalars — so the copy is
// complete and detached.
func (r *Recorder) MetricsSnapshot() Metrics {
	if r == nil || r.m == nil {
		return Metrics{}
	}
	if r.mu != nil {
		r.mu.Lock()
		defer r.mu.Unlock()
	}
	return *r.m
}

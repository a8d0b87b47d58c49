package cord

import (
	"fmt"

	"cord/internal/noc"
	"cord/internal/obs"
	"cord/internal/proto"
	"cord/internal/proto/core"
	"cord/internal/stats"
)

// dir is the CORD directory-side adapter (Alg. 2). Each instance is one LLC
// slice's directory. Eligibility, commit bookkeeping, notification serving,
// and the recycle fixpoint are all core.CordDir rules — the same rules the
// litmus model checker explores; proto.DirBase times the LLC commits, and
// this type owns stats and obs events.
type dir struct {
	proto.DirBase
	cfg Config

	// st holds the protocol-visible tables (store counters, notification
	// counters, largest committed epochs, recycle buffers).
	st core.CordDir

	occCnt, occNoti, occLargest, occNetBuf *stats.Occupancy
}

func newDir(sys *proto.System, id noc.NodeID, cfg Config) *dir {
	d := &dir{
		cfg:        cfg,
		st:         core.NewCordDir(sys.Indices()),
		occCnt:     stats.NewOccupancy("dir/store-counter", dirCntEntryBytes),
		occNoti:    stats.NewOccupancy("dir/notification-counter", dirNotiEntryBytes),
		occLargest: stats.NewOccupancy("dir/largest-epoch", dirLargestEpEntryBytes),
		occNetBuf:  stats.NewOccupancy("dir/network-buffer", dirNetBufEntryBytes),
	}
	d.InitBase(sys, id, d)
	for _, o := range []*stats.Occupancy{d.occCnt, d.occNoti, d.occLargest, d.occNetBuf} {
		o.Instance = id.String()
	}
	sys.Run.Tables = append(sys.Run.Tables, d.occCnt, d.occNoti, d.occLargest, d.occNetBuf)
	return d
}

// Receive implements proto.DirAdapter.
func (d *dir) Receive(m *core.Msg) {
	switch m.Kind {
	case core.MRelaxed:
		d.onRelaxed(m)
	case core.MRelease:
		d.onRelease(m)
	case core.MReqNotify:
		d.onReqNotify(m)
	case core.MNotify:
		d.onNotify(m)
	case core.MWBData:
		d.Commit(m)
	default:
		panic(fmt.Sprintf("cord: dir %v got unexpected message %v", d.ID, m.Kind))
	}
}

// Committed implements proto.DirAdapter: an atomic returns its prior value,
// a Release retires its tables and is acknowledged, and a write-back store
// is acknowledged.
func (d *dir) Committed(m *core.Msg) {
	switch m.Kind {
	case core.MRelaxed:
		if m.Atomic {
			d.Ack(m, core.MAtomicResp)
		}
	case core.MRelease:
		d.committedRelease(m)
	case core.MWBData:
		d.Ack(m, core.MWBAck)
	}
}

// onRelaxed commits a Relaxed store immediately (Alg. 2 lines 18-20). The
// ordering point is arrival at the directory controller: the store counter
// bumps right away, and the LLC write pipelines behind it. A Release that
// becomes eligible on this count schedules its own commit at least one
// commit latency later, so its LLC write never overtakes this one.
func (d *dir) onRelaxed(m *core.Msg) {
	if d.st.NoteRelaxed(m.Src, m.Ep) {
		d.occCnt.Inc()
	}
	if rec := d.Obs; rec.Take() {
		// The store is directory-ordered the moment its counter bumps.
		rec.Record(obs.Event{At: d.Eng.Now(), Kind: obs.KOrdered,
			Src: d.ID.Obs(), Dst: d.Sys.CoreAt(m.Src).Obs(), Seq: m.Ep, Addr: m.Addr})
	}
	d.Commit(m)
	d.reeval()
}

// onRelease commits an eligible Release store or recycles it (Alg. 2 21-24).
func (d *dir) onRelease(m *core.Msg) {
	if !d.st.ReleaseEligible(*m) {
		d.st.BufferRelease(*m)
		d.occNetBuf.Inc()
		d.noteRetry(stats.ClassReleaseData, m)
		return
	}
	d.Commit(m)
}

// noteRetry records a recycle-buffer admission: the depth for the metrics
// registry and, when sampled, a KRetry event.
func (d *dir) noteRetry(class stats.MsgClass, m *core.Msg) {
	rec := d.Obs
	rec.DirDepth(d.st.Buffered())
	if rec.Take() {
		rec.Record(obs.Event{At: d.Eng.Now(), Kind: obs.KRetry,
			Src: d.ID.Obs(), Dst: d.Sys.CoreAt(m.Src).Obs(), Class: class, Seq: m.Ep})
	}
}

// committedRelease applies the core rule's table effects once a Release's
// LLC commit completes, and acknowledges it to the issuing core.
func (d *dir) committedRelease(m *core.Msg) {
	freedCnt, freedNoti, newLargest := d.st.CommitRelease(*m)
	if newLargest {
		d.occLargest.Inc()
	}
	if freedCnt {
		d.occCnt.Dec()
	}
	if freedNoti {
		d.occNoti.Dec()
	}
	d.NoteRelCommit(m, m.Ep)
	d.Ack(m, core.MAck)
	d.reeval()
}

// onReqNotify forwards a notification to the destination directory once the
// local pending stores commit (Alg. 2 lines 25-28).
func (d *dir) onReqNotify(m *core.Msg) {
	if !d.st.ReqEligible(*m) {
		d.st.BufferReq(*m)
		d.occNetBuf.Inc()
		d.noteRetry(stats.ClassReqNotify, m)
		return
	}
	// The core rule consumes the request: the store-counter entry retires
	// (§4.3) and the notification either goes on the wire, in the request's
	// box, or — for a degenerate self-notification — is absorbed.
	out, wire, freedCnt, selfNew := d.st.SendNotify(*m, d.Ix)
	if freedCnt {
		d.occCnt.Dec()
	}
	if wire {
		*m = out
		d.sendNotify(m)
		return
	}
	if selfNew {
		d.occNoti.Inc()
	}
	d.reeval()
}

// sendNotify sends a core-emitted notification to its destination directory.
func (d *dir) sendNotify(m *core.Msg) {
	dst := d.Sys.DirAt(m.Dir)
	if rec := d.Obs; rec.Take() {
		rec.Record(obs.Event{At: d.Eng.Now(), Kind: obs.KNotify,
			Src: d.ID.Obs(), Dst: dst.Obs(), Seq: m.Ep})
	}
	d.Sys.Net.Send(d.ID, dst, stats.ClassNotify, proto.NotifyBytes, m)
}

// onNotify counts a notification toward the corresponding Release
// (Alg. 2 lines 29-30).
func (d *dir) onNotify(m *core.Msg) {
	if d.st.NoteNotify(m.Src, m.Ep) {
		d.occNoti.Inc()
	}
	d.reeval()
}

// reeval runs the core recycle fixpoint: committing one Release may unblock
// a buffered request-for-notification for a later epoch and vice versa.
// Occupancy deltas from entries the rules reclaim internally (served
// requests) are reconciled afterwards — no simulated time passes inside the
// fixpoint, so the deferred updates are indistinguishable.
func (d *dir) reeval() {
	cntB, notiB, reqB := len(d.st.Cnt), len(d.st.Noti), len(d.st.PendingReq)
	d.st.Reeval(d.Ix,
		func(m core.Msg) { d.occNetBuf.Dec(); d.Commit(&m) },
		func(out core.Msg) { d.sendNotify(&out) })
	for n := cntB - len(d.st.Cnt); n > 0; n-- {
		d.occCnt.Dec()
	}
	for n := len(d.st.Noti) - notiB; n > 0; n-- {
		d.occNoti.Inc()
	}
	for n := reqB - len(d.st.PendingReq); n > 0; n-- {
		d.occNetBuf.Dec()
	}
}

// Protocol is the proto.Builder for CORD (and, with SeqBits set, SEQ-N).
type Protocol struct {
	Cfg Config
	// Variants are core-level ablation switches applied on top of Cfg's
	// derived parameters — the same switches litmus configs apply, so a
	// tweak defined once is simultaneously simulated and model-checked.
	Variants []core.Variant
}

// New returns CORD with the paper's default configuration.
func New() *Protocol { return &Protocol{Cfg: DefaultConfig()} }

// NewSeq returns the SEQ-N monolithic sequence-number baseline.
func NewSeq(bits int) *Protocol { return &Protocol{Cfg: SeqConfig(bits)} }

// Name implements proto.Builder.
func (p *Protocol) Name() string {
	if p.Cfg.SeqBits > 0 {
		return fmt.Sprintf("SEQ-%d", p.Cfg.SeqBits)
	}
	return "CORD"
}

// Build implements proto.Builder.
func (p *Protocol) Build(sys *proto.System, cores []noc.NodeID) []proto.CPU {
	if err := p.Cfg.Validate(); err != nil {
		panic(err)
	}
	cp := p.Cfg.Params()
	for _, v := range p.Variants {
		v.Apply(&cp)
	}
	for _, id := range sys.Dirs() {
		newDir(sys, id, p.Cfg)
	}
	cpus := make([]proto.CPU, len(cores))
	for i, id := range cores {
		cpus[i] = newCPU(sys, id, &sys.Run.Procs[i], p.Cfg, cp)
	}
	return cpus
}

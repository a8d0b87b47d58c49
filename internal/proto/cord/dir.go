package cord

import (
	"fmt"

	"cord/internal/memsys"
	"cord/internal/noc"
	"cord/internal/obs"
	"cord/internal/proto"
	"cord/internal/proto/core"
	"cord/internal/stats"
)

// dir is the CORD directory-side adapter (Alg. 2). Each instance is one LLC
// slice's directory. Eligibility, commit bookkeeping, notification serving,
// and the recycle fixpoint are all core.CordDir rules — the same rules the
// litmus model checker explores; this type owns timing (scheduled LLC
// commits), wire formats, stats, and obs events.
type dir struct {
	proto.DirBase
	cfg Config

	// st holds the protocol-visible tables (store counters, notification
	// counters, largest committed epochs, recycle buffers).
	st core.CordDir
	// self is this directory's dense index; tiles maps node IDs to indices.
	self  int
	tiles int

	occCnt, occNoti, occLargest, occNetBuf *stats.Occupancy

	// Recycles counts how many times a buffered message was re-evaluated
	// without becoming eligible, for diagnostics.
	Recycles int
}

func newDir(sys *proto.System, id noc.NodeID, cfg Config) *dir {
	nc := sys.Net.Config()
	d := &dir{
		cfg:        cfg,
		st:         core.NewCordDir(nc.Hosts * nc.TilesPerHost),
		self:       id.Host*nc.TilesPerHost + id.Tile,
		tiles:      nc.TilesPerHost,
		occCnt:     stats.NewOccupancy("dir/store-counter", dirCntEntryBytes),
		occNoti:    stats.NewOccupancy("dir/notification-counter", dirNotiEntryBytes),
		occLargest: stats.NewOccupancy("dir/largest-epoch", dirLargestEpEntryBytes),
		occNetBuf:  stats.NewOccupancy("dir/network-buffer", dirNetBufEntryBytes),
	}
	d.InitBase(sys, id)
	for _, o := range []*stats.Occupancy{d.occCnt, d.occNoti, d.occLargest, d.occNetBuf} {
		o.Instance = id.String()
	}
	sys.Run.Tables = append(sys.Run.Tables, d.occCnt, d.occNoti, d.occLargest, d.occNetBuf)
	return d
}

// pix is the dense index of a node (processor or directory) for the core
// rules.
func (d *dir) pix(id noc.NodeID) int { return id.Host*d.tiles + id.Tile }

// coreAt is pix's inverse: the core rules identify processors by dense
// index; acknowledgments travel back to the matching core node.
func (d *dir) coreAt(ix int) noc.NodeID { return noc.CoreID(ix/d.tiles, ix%d.tiles) }

func (d *dir) handle(src noc.NodeID, payload any) {
	switch m := payload.(type) {
	case *proto.LoadReq:
		d.HandleLoadReq(m)
	case *relaxedMsg:
		d.onRelaxed(m)
	case *releaseMsg:
		d.onRelease(m)
	case *reqNotifyMsg:
		d.onReqNotify(m)
	case *notifyMsg:
		d.onNotify(m)
	case *wbMsg:
		d.Eng.Schedule(d.Sys.Timing.CommitLatency(), func() {
			d.CommitValue(m.Addr, m.Value)
			d.Sys.Net.Send(d.ID, m.Src, stats.ClassAck, proto.AckBytes, &wbAckMsg{Tag: m.Tag})
		})
	default:
		panic(fmt.Sprintf("cord: dir %v got unexpected message %T from %v", d.ID, payload, src))
	}
}

// onRelaxed commits a Relaxed store immediately (Alg. 2 lines 18-20). The
// ordering point is arrival at the directory controller: the store counter
// bumps right away, and the LLC write pipelines behind it. A Release that
// becomes eligible on this count schedules its own commit at least one
// commit latency later, so its LLC write never overtakes this one.
func (d *dir) onRelaxed(m *relaxedMsg) {
	if d.st.NoteRelaxed(d.pix(m.Src), m.Ep) {
		d.occCnt.Inc()
	}
	if rec := d.Obs; rec.Take() {
		// The store is directory-ordered the moment its counter bumps.
		rec.Record(obs.Event{At: d.Eng.Now(), Kind: obs.KOrdered,
			Src: d.ID.Obs(), Dst: m.Src.Obs(), Seq: m.Ep, Addr: uint64(m.Addr)})
	}
	d.Eng.Schedule(d.Sys.Timing.CommitLatency(), func() {
		if m.Atomic {
			old := d.FetchAdd(m.Addr, m.Value)
			d.Sys.Net.Send(d.ID, m.Src, stats.ClassAtomicResp, proto.AckBytes+8,
				&atomicRespMsg{Tag: m.Tag, Old: old})
			return
		}
		d.CommitValue(m.Addr, m.Value)
	})
	d.reeval()
}

// relCore translates an arrived Release to the core vocabulary.
func (d *dir) relCore(m *releaseMsg) core.Msg {
	return core.Msg{Kind: core.MRelease, Src: d.pix(m.Src), Dir: d.self,
		Ep: m.Ep, Cnt: m.Cnt, HasPrev: m.HasPrev, PrevEp: m.PrevEp,
		NotiCnt: m.NotiCnt, Addr: uint64(m.Addr), Val: m.Value, Size: m.Size,
		Barrier: m.Barrier, Atomic: m.Atomic}
}

// onRelease commits an eligible Release store or recycles it (Alg. 2 21-24).
func (d *dir) onRelease(m *releaseMsg) {
	cm := d.relCore(m)
	if !d.st.ReleaseEligible(cm) {
		d.st.BufferRelease(cm)
		d.occNetBuf.Inc()
		d.noteRetry(stats.ClassReleaseData, m.Src, m.Ep)
		return
	}
	d.commitRelease(cm)
}

// noteRetry records a recycle-buffer admission: the depth for the metrics
// registry and, when sampled, a KRetry event.
func (d *dir) noteRetry(class stats.MsgClass, src noc.NodeID, ep uint64) {
	rec := d.Obs
	rec.DirDepth(d.st.Buffered())
	if rec.Take() {
		rec.Record(obs.Event{At: d.Eng.Now(), Kind: obs.KRetry,
			Src: d.ID.Obs(), Dst: src.Obs(), Class: class, Seq: ep})
	}
}

// commitRelease schedules an eligible Release's LLC commit one commit
// latency out; the core rule applies the table effects at that point, and
// the acknowledgment leaves for the issuing core.
func (d *dir) commitRelease(cm core.Msg) {
	d.Eng.Schedule(d.Sys.Timing.CommitLatency(), func() {
		switch {
		case cm.Atomic:
			d.FetchAdd(memsys.Addr(cm.Addr), cm.Val)
		case !cm.Barrier:
			d.CommitValue(memsys.Addr(cm.Addr), cm.Val)
		}
		freedCnt, freedNoti, newLargest := d.st.CommitRelease(cm)
		if newLargest {
			d.occLargest.Inc()
		}
		if freedCnt {
			d.occCnt.Dec()
		}
		if freedNoti {
			d.occNoti.Dec()
		}
		src := d.coreAt(cm.Src)
		class, size := stats.ClassAck, proto.AckBytes
		if cm.Atomic {
			class, size = stats.ClassAtomicResp, proto.AckBytes+8
		}
		if rec := d.Obs; rec.Take() {
			rec.Record(obs.Event{At: d.Eng.Now(), Kind: obs.KRelCommit,
				Src: d.ID.Obs(), Dst: src.Obs(), Seq: cm.Ep, Addr: cm.Addr})
		}
		d.Sys.Net.Send(d.ID, src, class, size, &ackMsg{Ep: cm.Ep})
		d.reeval()
	})
}

// onReqNotify forwards a notification to the destination directory once the
// local pending stores commit (Alg. 2 lines 25-28).
func (d *dir) onReqNotify(m *reqNotifyMsg) {
	cm := core.Msg{Kind: core.MReqNotify, Src: d.pix(m.Src), Dir: d.self,
		Dst: d.pix(m.Dst), Ep: m.Ep, Cnt: m.RelaxedCnt,
		HasPrev: m.HasPrev, PrevEp: m.PrevEp}
	if !d.st.ReqEligible(cm) {
		d.st.BufferReq(cm)
		d.occNetBuf.Inc()
		d.noteRetry(stats.ClassReqNotify, m.Src, m.Ep)
		return
	}
	d.serveNotify(cm)
}

// serveNotify consumes an eligible request-for-notification through the core
// rule: the store-counter entry retires (§4.3) and the notification either
// goes on the wire or — for a degenerate self-notification — is absorbed.
func (d *dir) serveNotify(cm core.Msg) {
	out, wire, freedCnt, selfNew := d.st.SendNotify(cm, d.self)
	if freedCnt {
		d.occCnt.Dec()
	}
	if !wire {
		if selfNew {
			d.occNoti.Inc()
		}
		d.reeval()
		return
	}
	d.wireNotify(out)
}

// wireNotify sends a core-emitted notification to its destination directory.
func (d *dir) wireNotify(out core.Msg) {
	dst := noc.DirID(out.Dir/d.tiles, out.Dir%d.tiles)
	if rec := d.Obs; rec.Take() {
		rec.Record(obs.Event{At: d.Eng.Now(), Kind: obs.KNotify,
			Src: d.ID.Obs(), Dst: dst.Obs(), Seq: out.Ep})
	}
	d.Sys.Net.Send(d.ID, dst, stats.ClassNotify, proto.NotifyBytes,
		&notifyMsg{Src: d.coreAt(out.Src), Ep: out.Ep})
}

// onNotify counts a notification toward the corresponding Release
// (Alg. 2 lines 29-30).
func (d *dir) onNotify(m *notifyMsg) {
	if d.st.NoteNotify(d.pix(m.Src), m.Ep) {
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
	d.st.Reeval(d.self,
		func(m core.Msg) { d.occNetBuf.Dec(); d.commitRelease(m) },
		func(out core.Msg) { d.wireNotify(out) },
		func() { d.Recycles++ })
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

// PendingBuffered reports recycled messages, for deadlock diagnosis.
func (d *dir) PendingBuffered() int { return d.st.Buffered() }

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
		d := newDir(sys, id, p.Cfg)
		sys.Net.Register(id, d.handle)
	}
	cpus := make([]proto.CPU, len(cores))
	for i, id := range cores {
		c := newCPU(sys, id, &sys.Run.Procs[i], p.Cfg, cp)
		sys.Net.Register(id, c.handle)
		cpus[i] = c
	}
	return cpus
}

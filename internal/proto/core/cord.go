package core

import "fmt"

// CordParams are the protocol parameters the CORD rules consult, already
// resolved to concrete values (counter saturation points, epoch window,
// table capacities). The simulator derives them from cord.Config; the model
// checker from litmus.Config. Variants (ablations) mutate these — see
// variants.go.
type CordParams struct {
	CntMax      uint64 // per-directory store-counter saturation value
	EpochWindow uint64 // max distance between oldest unacked epoch and current
	SeqMode     bool   // SEQ-N baseline: one monolithic sequence counter

	ProcUnackedCap    int // distinct unacked epochs a processor may hold
	ProcCntCap        int // live per-directory store counters at a processor
	DirCntCapPerProc  int // per-(proc) store-counter entries at a directory
	DirNotiCapPerProc int // per-(proc) notification entries at a directory

	// NoNotifications ablates the inter-directory notification mechanism
	// (§6.4): a cross-directory release first drains every other directory
	// with an empty-release barrier instead of sending ReqNotify.
	NoNotifications bool
}

// EpochRec tracks one unacknowledged release epoch at a processor.
// Outstanding counts the acks still expected for the epoch: 1 for a normal
// release, the fan-out width for a barrier.
type EpochRec struct {
	Ep          uint64
	Outstanding int
}

// CordProc is the processor-side CORD state (paper Alg. 1): the current
// epoch, per-directory relaxed-store counters for that epoch, and the
// bounded table of unacknowledged release epochs (§4.3).
type CordProc struct {
	Ep        uint64
	Cnt       []uint64   // relaxed stores sent to each directory this epoch
	CntLive   int        // number of nonzero Cnt entries (counter-table occupancy)
	SeqIssued uint64     // SEQ-N: stores since the last release, across all dirs
	Unacked   []EpochRec // unacked epochs, ascending
	ByDir     [][]uint64 // unacked epochs per destination directory, ascending
}

// NewCordProc returns processor state sized for ndirs directories.
func NewCordProc(ndirs int) CordProc {
	return CordProc{Cnt: make([]uint64, ndirs), ByDir: make([][]uint64, ndirs)}
}

// Clone deep-copies the state (model-checker world forking).
func (p *CordProc) Clone() CordProc {
	c := *p
	c.Cnt = append([]uint64(nil), p.Cnt...)
	c.Unacked = append([]EpochRec(nil), p.Unacked...)
	c.ByDir = make([][]uint64, len(p.ByDir))
	for i, eps := range p.ByDir {
		if len(eps) > 0 {
			c.ByDir[i] = append([]uint64(nil), eps...)
		}
	}
	return c
}

// Provisioned reports whether a release bound for directory d can be issued
// now: the unacked-epoch table has a free slot, the epoch window has room,
// and directory d's per-processor tables can absorb one more entry (§4.3).
func (p *CordProc) Provisioned(cp CordParams, d int) bool {
	if len(p.Unacked) >= cp.ProcUnackedCap {
		return false
	}
	if p.WindowBlocked(cp) {
		return false
	}
	if len(p.ByDir[d]) >= cp.DirCntCapPerProc || len(p.ByDir[d]) >= cp.DirNotiCapPerProc {
		return false
	}
	return true
}

// WindowBlocked reports whether the epoch in-flight window is exhausted:
// the oldest unacknowledged epoch is EpochWindow behind the current one, so
// a new epoch's number would be ambiguous at the configured bit-width.
func (p *CordProc) WindowBlocked(cp CordParams) bool {
	return len(p.Unacked) > 0 && p.Ep-p.Unacked[0].Ep >= cp.EpochWindow
}

// Admit is RelaxedAdmit's verdict.
type Admit uint8

const (
	AdmitOK        Admit = iota
	AdmitOverflow        // store counter (or SEQ-N sequence) would saturate
	AdmitTableFull       // no free per-directory counter slot at the processor
)

// RelaxedAdmit decides whether a relaxed store to directory d can be counted
// in the current epoch, or whether the processor must first flush (issue an
// empty release) to open a new epoch.
func (p *CordProc) RelaxedAdmit(cp CordParams, d int) Admit {
	if p.Cnt[d] >= cp.CntMax || (cp.SeqMode && p.SeqIssued >= cp.CntMax) {
		return AdmitOverflow
	}
	if p.Cnt[d] == 0 && p.CntLive >= cp.ProcCntCap {
		return AdmitTableFull
	}
	return AdmitOK
}

// NoteRelaxed counts one admitted relaxed store toward directory d in the
// current epoch. newEntry reports a fresh counter-table allocation.
func (p *CordProc) NoteRelaxed(d int) (ep uint64, newEntry bool) {
	if p.Cnt[d] == 0 {
		p.CntLive++
		newEntry = true
	}
	p.Cnt[d]++
	p.SeqIssued++
	return p.Ep, newEntry
}

// Dirty reports whether any relaxed stores are uncounted-for in the current
// epoch (some directory's counter is nonzero).
func (p *CordProc) Dirty() bool { return p.CntLive > 0 }

// DirtyOutside reports whether the current epoch holds relaxed stores bound
// for a directory other than d.
func (p *CordProc) DirtyOutside(d int) bool {
	for i, n := range p.Cnt {
		if i != d && n > 0 {
			return true
		}
	}
	return false
}

// UnackedOutside reports whether an unacknowledged release is pending at a
// directory other than d.
func (p *CordProc) UnackedOutside(d int) bool {
	for i, eps := range p.ByDir {
		if i != d && len(eps) > 0 {
			return true
		}
	}
	return false
}

// EpochLive reports whether epoch ep still awaits acknowledgment.
func (p *CordProc) EpochLive(ep uint64) bool {
	for _, r := range p.Unacked {
		if r.Ep == ep {
			return true
		}
	}
	return false
}

// lastUnackedFor returns the most recent unacked release epoch bound for d,
// which a new message to d names as its predecessor (point-to-point order).
func (p *CordProc) lastUnackedFor(d int) (bool, uint64) {
	eps := p.ByDir[d]
	if len(eps) == 0 {
		return false, 0
	}
	return true, eps[len(eps)-1]
}

// IssueRelease emits the ReqNotify fan-out (ascending directory order, one
// per other directory holding this epoch's relaxed stores or unacked
// releases) followed by the release bound for directory d, records the new
// unacked epoch, and opens the next epoch. rel supplies the payload fields
// (Src/Addr/Val/Size/Barrier/Atomic/Tag); the ordering fields are filled
// here. The caller must have checked Provisioned.
func (p *CordProc) IssueRelease(d int, rel Msg, buf []Msg) []Msg {
	ep := p.Ep
	pend := 0
	for dir := range p.Cnt {
		if dir == d || (p.Cnt[dir] == 0 && len(p.ByDir[dir]) == 0) {
			continue
		}
		m := Msg{Kind: MReqNotify, Src: rel.Src, Dir: dir, Dst: d,
			Ep: ep, Cnt: p.Cnt[dir]}
		m.HasPrev, m.PrevEp = p.lastUnackedFor(dir)
		buf = append(buf, m)
		pend++
	}
	rel.Kind = MRelease
	rel.Dir = d
	rel.Ep = ep
	rel.Cnt = p.Cnt[d]
	rel.NotiCnt = pend
	rel.HasPrev, rel.PrevEp = p.lastUnackedFor(d)
	buf = append(buf, rel)
	p.Unacked = append(p.Unacked, EpochRec{Ep: ep, Outstanding: 1})
	p.ByDir[d] = append(p.ByDir[d], ep)
	p.advanceEpoch()
	return buf
}

// IssueBarrier broadcasts an empty release to every directory holding the
// current epoch's relaxed stores, except directory `except` when >= 0 (the
// NoNotifications cross-directory drain, which keeps the current epoch
// open). A full barrier (except < 0) advances the epoch. If some target
// directory is not provisioned for one more release, nothing is mutated and
// ok is false with badDir naming the first offender (ascending order, so
// the retry blocks on the same directory the simulator would).
func (p *CordProc) IssueBarrier(cp CordParams, except, src int, buf []Msg) (out []Msg, ok bool, badDir int) {
	for d, n := range p.Cnt {
		if n == 0 || d == except {
			continue
		}
		if !p.Provisioned(cp, d) {
			return buf, false, d
		}
	}
	ep := p.Ep
	n := 0
	for d, c := range p.Cnt {
		if c == 0 || d == except {
			continue
		}
		m := Msg{Kind: MRelease, Src: src, Dir: d, Ep: ep, Cnt: c, Barrier: true}
		m.HasPrev, m.PrevEp = p.lastUnackedFor(d)
		buf = append(buf, m)
		p.ByDir[d] = append(p.ByDir[d], ep)
		n++
	}
	if n > 0 {
		p.Unacked = append(p.Unacked, EpochRec{Ep: ep, Outstanding: n})
	}
	if except >= 0 {
		// Drain mode: the epoch stays open for the release that follows;
		// only the drained directories' counters retire.
		for d := range p.Cnt {
			if d != except && p.Cnt[d] > 0 {
				p.Cnt[d] = 0
				p.CntLive--
			}
		}
	} else if n > 0 {
		p.advanceEpoch()
	}
	return buf, true, -1
}

// advanceEpoch opens a fresh epoch: all per-directory counters reset.
func (p *CordProc) advanceEpoch() {
	p.Ep++
	for i := range p.Cnt {
		p.Cnt[i] = 0
	}
	p.CntLive = 0
	p.SeqIssued = 0
}

// AckRelease retires one acknowledgment for epoch ep. When the epoch's last
// ack arrives (done), the epoch leaves the unacked table and the heads of
// every per-directory chain are pruned: releases to one directory commit in
// program order, so retired epochs always leave a chain from the front.
func (p *CordProc) AckRelease(ep uint64) (done bool) {
	i := -1
	for j := range p.Unacked {
		if p.Unacked[j].Ep == ep {
			i = j
			break
		}
	}
	if i < 0 {
		panic(fmt.Sprintf("core: ack for unknown epoch %d", ep))
	}
	p.Unacked[i].Outstanding--
	if p.Unacked[i].Outstanding > 0 {
		return false
	}
	p.Unacked = append(p.Unacked[:i], p.Unacked[i+1:]...)
	for d := range p.ByDir {
		eps := p.ByDir[d]
		for len(eps) > 0 && !p.EpochLive(eps[0]) {
			eps = eps[1:]
		}
		p.ByDir[d] = eps
	}
	return true
}

// PE is one (processor, epoch) entry in a directory-side table.
type PE struct {
	Proc int
	Ep   uint64
	N    uint64
}

// CordDir is the directory-side CORD state (paper Alg. 2): per-(proc,epoch)
// committed relaxed-store counters and received-notification counters, the
// largest committed release epoch per processor, and the recycle buffers
// holding releases and notification requests that are not yet eligible.
type CordDir struct {
	Cnt        []PE    // committed relaxed stores per (proc, epoch)
	Noti       []PE    // received notifications per (proc, epoch)
	Largest    []int64 // largest committed release epoch per proc; -1 none
	PendingRel []Msg
	PendingReq []Msg
}

// NewCordDir returns directory state sized for nprocs processors.
func NewCordDir(nprocs int) CordDir {
	l := make([]int64, nprocs)
	for i := range l {
		l[i] = -1
	}
	return CordDir{Largest: l}
}

// Clone deep-copies the state (model-checker world forking).
func (d *CordDir) Clone() CordDir {
	c := *d
	c.Cnt = append([]PE(nil), d.Cnt...)
	c.Noti = append([]PE(nil), d.Noti...)
	c.Largest = append([]int64(nil), d.Largest...)
	c.PendingRel = append([]Msg(nil), d.PendingRel...)
	c.PendingReq = append([]Msg(nil), d.PendingReq...)
	return c
}

func find(tab []PE, proc int, ep uint64) int {
	for i := range tab {
		if tab[i].Proc == proc && tab[i].Ep == ep {
			return i
		}
	}
	return -1
}

func get(tab []PE, proc int, ep uint64) uint64 {
	if i := find(tab, proc, ep); i >= 0 {
		return tab[i].N
	}
	return 0
}

func add(tab *[]PE, proc int, ep uint64) (newEntry bool) {
	if i := find(*tab, proc, ep); i >= 0 {
		(*tab)[i].N++
		return false
	}
	*tab = append(*tab, PE{Proc: proc, Ep: ep, N: 1})
	return true
}

func drop(tab *[]PE, proc int, ep uint64) (freed bool) {
	if i := find(*tab, proc, ep); i >= 0 {
		*tab = append((*tab)[:i], (*tab)[i+1:]...)
		return true
	}
	return false
}

// NoteRelaxed counts one committed relaxed store from proc's epoch ep.
// newEntry reports a fresh store-counter allocation.
func (d *CordDir) NoteRelaxed(proc int, ep uint64) (newEntry bool) {
	return add(&d.Cnt, proc, ep)
}

// NoteNotify counts one received notification for proc's epoch ep.
// newEntry reports a fresh notification-table allocation.
func (d *CordDir) NoteNotify(proc int, ep uint64) (newEntry bool) {
	return add(&d.Noti, proc, ep)
}

// prevCommitted reports whether the message's named predecessor release has
// committed at this directory (point-to-point order, Alg. 2 line 9).
func (d *CordDir) prevCommitted(m Msg) bool {
	if !m.HasPrev {
		return true
	}
	return d.Largest[m.Src] >= int64(m.PrevEp)
}

// ReleaseEligible reports whether a release may commit: all of its epoch's
// relaxed stores to this directory have arrived, its predecessor committed,
// and all expected notifications were received.
func (d *CordDir) ReleaseEligible(m Msg) bool {
	return get(d.Cnt, m.Src, m.Ep) >= m.Cnt && d.prevCommitted(m) &&
		get(d.Noti, m.Src, m.Ep) >= uint64(m.NotiCnt)
}

// ReqEligible reports whether a notification request may be served: the
// epoch's relaxed stores to this directory arrived and the predecessor
// release committed.
func (d *CordDir) ReqEligible(m Msg) bool {
	return get(d.Cnt, m.Src, m.Ep) >= m.Cnt && d.prevCommitted(m)
}

// BufferRelease parks an ineligible release in the recycle buffer.
func (d *CordDir) BufferRelease(m Msg) { d.PendingRel = append(d.PendingRel, m) }

// BufferReq parks an ineligible notification request.
func (d *CordDir) BufferReq(m Msg) { d.PendingReq = append(d.PendingReq, m) }

// CommitRelease applies an eligible release's directory bookkeeping: the
// processor's largest committed epoch advances and the epoch's counter
// entries retire. The memory-cell effect (write, fetch-add, or nothing for
// a barrier) is the driver's, as is sending MAck{Src, Dir, Ep} back.
func (d *CordDir) CommitRelease(m Msg) (freedCnt, freedNoti, newLargest bool) {
	newLargest = d.Largest[m.Src] < 0
	if int64(m.Ep) > d.Largest[m.Src] {
		d.Largest[m.Src] = int64(m.Ep)
	}
	freedCnt = drop(&d.Cnt, m.Src, m.Ep)
	freedNoti = drop(&d.Noti, m.Src, m.Ep)
	return
}

// SendNotify serves an eligible notification request: the epoch's
// store-counter entry retires (§4.3) and the notification either travels to
// another directory (wire=true, out is the MNotify to send) or — for the
// degenerate self-notification — is absorbed locally.
func (d *CordDir) SendNotify(m Msg, self int) (out Msg, wire bool, freedCnt, selfNewEntry bool) {
	freedCnt = drop(&d.Cnt, m.Src, m.Ep)
	out = Msg{Kind: MNotify, Src: m.Src, Dir: m.Dst, Ep: m.Ep}
	if m.Dst == self {
		selfNewEntry = d.NoteNotify(m.Src, m.Ep)
		return out, false, freedCnt, selfNewEntry
	}
	return out, true, freedCnt, false
}

// Reeval drains the recycle buffers to a fixpoint, in the simulator's order:
// repeated passes over the buffered releases then the buffered requests,
// until a full pass makes no progress. commit receives each now-eligible
// release (already removed from the buffer; the driver applies or schedules
// CommitRelease plus the memory effect and the ack). notify receives each
// MNotify that must travel to another directory; self-notifications are
// absorbed here and feed the fixpoint. Eligibility is monotone — commits and notifications only enable more
// messages — so the drain order cannot change the reachable fixpoint.
func (d *CordDir) Reeval(self int, commit func(Msg), notify func(Msg)) {
	for {
		progress := false
		keep := d.PendingRel[:0]
		for _, m := range d.PendingRel {
			if d.ReleaseEligible(m) {
				progress = true
				commit(m)
			} else {
				keep = append(keep, m)
			}
		}
		d.PendingRel = keep
		keepQ := d.PendingReq[:0]
		for _, m := range d.PendingReq {
			if d.ReqEligible(m) {
				progress = true
				out, wire, _, _ := d.SendNotify(m, self)
				if wire {
					notify(out)
				}
			} else {
				keepQ = append(keepQ, m)
			}
		}
		d.PendingReq = keepQ
		if !progress {
			return
		}
	}
}

// Buffered is the number of messages parked in the recycle buffers.
func (d *CordDir) Buffered() int { return len(d.PendingRel) + len(d.PendingReq) }

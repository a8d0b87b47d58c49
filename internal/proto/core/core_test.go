package core

import (
	"reflect"
	"testing"
)

func params() CordParams {
	return CordParams{
		CntMax: 255, EpochWindow: 255,
		ProcUnackedCap: 8, ProcCntCap: 8,
		DirCntCapPerProc: 8, DirNotiCapPerProc: 16,
	}
}

func TestCordProcReleaseFanOut(t *testing.T) {
	p := NewCordProc(3)
	cp := params()
	p.NoteRelaxed(0)
	p.NoteRelaxed(0)
	p.NoteRelaxed(2)
	if !p.Provisioned(cp, 1) {
		t.Fatal("fresh proc must be provisioned")
	}
	msgs := p.IssueRelease(1, Msg{Src: 7, Addr: 42, Val: 1}, nil)
	if len(msgs) != 3 {
		t.Fatalf("want 2 ReqNotify + 1 Release, got %d msgs", len(msgs))
	}
	// Ascending directory order, release last.
	if msgs[0].Kind != MReqNotify || msgs[0].Dir != 0 || msgs[0].Cnt != 2 {
		t.Fatalf("bad first ReqNotify: %+v", msgs[0])
	}
	if msgs[1].Kind != MReqNotify || msgs[1].Dir != 2 || msgs[1].Cnt != 1 {
		t.Fatalf("bad second ReqNotify: %+v", msgs[1])
	}
	rel := msgs[2]
	if rel.Kind != MRelease || rel.Dir != 1 || rel.Cnt != 0 || rel.NotiCnt != 2 ||
		rel.HasPrev || rel.Addr != 42 {
		t.Fatalf("bad release: %+v", rel)
	}
	if p.Ep != 1 || p.Dirty() || len(p.Unacked) != 1 {
		t.Fatalf("epoch not advanced cleanly: %+v", p)
	}
	// Second release to the same directory names the first as predecessor.
	msgs = p.IssueRelease(1, Msg{Src: 7}, nil)
	rel = msgs[len(msgs)-1]
	if !rel.HasPrev || rel.PrevEp != 0 {
		t.Fatalf("second release must chain to epoch 0: %+v", rel)
	}
	if done := p.AckRelease(0); !done {
		t.Fatal("single-ack epoch must retire")
	}
	if len(p.Unacked) != 1 || len(p.ByDir[1]) != 1 || p.ByDir[1][0] != 1 {
		t.Fatalf("ack pruning wrong: %+v", p)
	}
}

func TestCordProcProvisioning(t *testing.T) {
	cp := params()
	cp.ProcUnackedCap = 2
	p := NewCordProc(2)
	p.IssueRelease(0, Msg{}, nil)
	p.IssueRelease(0, Msg{}, nil)
	if p.Provisioned(cp, 0) || p.Provisioned(cp, 1) {
		t.Fatal("unacked table full: nothing is provisioned")
	}
	p.AckRelease(0)
	if !p.Provisioned(cp, 0) {
		t.Fatal("freed slot must re-provision")
	}
	cp.EpochWindow = 1
	if p.Provisioned(cp, 0) {
		t.Fatal("epoch window of 1 with epoch 1 still unacked must block")
	}
	cp.EpochWindow = 255
	cp.DirCntCapPerProc = 1
	if p.Provisioned(cp, 0) {
		t.Fatal("per-dir cap reached for dir 0")
	}
	if !p.Provisioned(cp, 1) {
		t.Fatal("dir 1 has no unacked entries")
	}
}

func TestCordProcAdmitVerdicts(t *testing.T) {
	cp := params()
	cp.CntMax = 2
	cp.ProcCntCap = 1
	p := NewCordProc(2)
	if v := p.RelaxedAdmit(cp, 0); v != AdmitOK {
		t.Fatalf("fresh: %v", v)
	}
	p.NoteRelaxed(0)
	p.NoteRelaxed(0)
	if v := p.RelaxedAdmit(cp, 0); v != AdmitOverflow {
		t.Fatalf("saturated counter: %v", v)
	}
	if v := p.RelaxedAdmit(cp, 1); v != AdmitTableFull {
		t.Fatalf("new entry over ProcCntCap: %v", v)
	}
	cp.SeqMode = true
	p2 := NewCordProc(2)
	p2.NoteRelaxed(0)
	p2.NoteRelaxed(1)
	if v := p2.RelaxedAdmit(cp, 0); v != AdmitOverflow {
		t.Fatalf("SEQ mode counts across dirs: %v", v)
	}
}

func TestCordBarrierFullAndDrain(t *testing.T) {
	cp := params()
	p := NewCordProc(3)
	p.NoteRelaxed(0)
	p.NoteRelaxed(2)
	msgs, ok, _ := p.IssueBarrier(cp, -1, 7, nil)
	if !ok || len(msgs) != 2 {
		t.Fatalf("full barrier: ok=%v msgs=%d", ok, len(msgs))
	}
	if !msgs[0].Barrier || msgs[0].Dir != 0 || msgs[1].Dir != 2 {
		t.Fatalf("barrier fan-out wrong: %+v", msgs)
	}
	if p.Ep != 1 || len(p.Unacked) != 1 || p.Unacked[0].Outstanding != 2 {
		t.Fatalf("full barrier must advance epoch, one rec with 2 acks: %+v", p)
	}
	if p.AckRelease(0) {
		t.Fatal("first of two acks must not retire the epoch")
	}
	if !p.AckRelease(0) {
		t.Fatal("second ack must retire the epoch")
	}

	// Drain mode (NoNotifications): epoch stays open, target dir untouched.
	q := NewCordProc(3)
	q.NoteRelaxed(0)
	q.NoteRelaxed(1)
	msgs, ok, _ = q.IssueBarrier(cp, 1, 7, nil)
	if !ok || len(msgs) != 1 || msgs[0].Dir != 0 {
		t.Fatalf("drain barrier: %+v", msgs)
	}
	if q.Ep != 0 || q.Cnt[1] != 1 || q.Cnt[0] != 0 {
		t.Fatalf("drain must keep the epoch and dir 1's counter: %+v", q)
	}

	// Unprovisioned target: no mutation.
	cp.DirCntCapPerProc = 0
	r := NewCordProc(2)
	r.NoteRelaxed(0)
	before := r.Clone()
	_, ok, bad := r.IssueBarrier(cp, -1, 7, nil)
	if ok || bad != 0 {
		t.Fatalf("want refusal on dir 0, got ok=%v bad=%d", ok, bad)
	}
	if !reflect.DeepEqual(before, r.Clone()) {
		t.Fatal("refused barrier must not mutate state")
	}
}

func TestCordDirEligibilityAndReeval(t *testing.T) {
	d := NewCordDir(2)
	rel := Msg{Kind: MRelease, Src: 0, Ep: 0, Cnt: 2, NotiCnt: 1}
	if d.ReleaseEligible(rel) {
		t.Fatal("nothing arrived yet")
	}
	d.BufferRelease(rel)
	d.NoteRelaxed(0, 0)
	d.NoteRelaxed(0, 0)
	d.NoteNotify(0, 0)
	var committed []Msg
	d.Reeval(0, func(m Msg) { committed = append(committed, m) }, nil)
	if len(committed) != 1 || d.Buffered() != 0 {
		t.Fatalf("release must drain: %d committed, %d buffered", len(committed), d.Buffered())
	}
	d.CommitRelease(committed[0])
	if d.Largest[0] != 0 || len(d.Cnt) != 0 || len(d.Noti) != 0 {
		t.Fatalf("commit must retire entries: %+v", d)
	}

	// Predecessor chaining: epoch 2 waits for epoch 1's commit.
	rel1 := Msg{Kind: MRelease, Src: 0, Ep: 1}
	rel2 := Msg{Kind: MRelease, Src: 0, Ep: 2, HasPrev: true, PrevEp: 1}
	if d.ReleaseEligible(rel2) {
		t.Fatal("predecessor not committed")
	}
	d.BufferRelease(rel2)
	d.Reeval(0, func(m Msg) { d.CommitRelease(m) }, nil)
	if d.Buffered() != 1 {
		t.Fatalf("ineligible release must stay buffered, %d buffered", d.Buffered())
	}
	committed = nil
	if !d.ReleaseEligible(rel1) {
		t.Fatal("rel1 has no preconditions")
	}
	d.CommitRelease(rel1)
	d.Reeval(0, func(m Msg) { d.CommitRelease(m); committed = append(committed, m) }, nil)
	if len(committed) != 1 || committed[0].Ep != 2 {
		t.Fatalf("rel2 must drain after rel1 commits: %+v", committed)
	}
}

func TestCordDirSendNotify(t *testing.T) {
	d := NewCordDir(1)
	d.NoteRelaxed(0, 3)
	req := Msg{Kind: MReqNotify, Src: 0, Ep: 3, Cnt: 1, Dst: 2}
	if !d.ReqEligible(req) {
		t.Fatal("count arrived, no predecessor")
	}
	out, wire, freed, _ := d.SendNotify(req, 0)
	if !wire || out.Kind != MNotify || out.Dir != 2 || out.Ep != 3 || !freed {
		t.Fatalf("bad notify: %+v wire=%v freed=%v", out, wire, freed)
	}
	if len(d.Cnt) != 0 {
		t.Fatal("store-counter entry must retire with the notification")
	}
	// Degenerate self-notification is absorbed.
	d.NoteRelaxed(0, 4)
	_, wire, _, selfNew := d.SendNotify(Msg{Src: 0, Ep: 4, Cnt: 1, Dst: 0}, 0)
	if wire || !selfNew || get(d.Noti, 0, 4) != 1 {
		t.Fatal("self-notify must bump the local table without a wire message")
	}
}

func TestMPOrdererFIFOAndFlush(t *testing.T) {
	o := NewMPOrderer(2)
	var committed, served []Msg
	commit := func(m Msg) { committed = append(committed, m) }
	flushOK := func(m Msg) { served = append(served, m) }

	// A flush over an uncommitted first write (Seq 0) must park: answering
	// early would let a barrier overtake the write it fences.
	if o.Flush(Msg{Kind: MMPFlush, Src: 0, Seq: 0}) {
		t.Fatal("flush before any commit must park")
	}
	if in := o.Submit(Msg{Kind: MMPStore, Src: 0, Seq: 1, Val: 11}, commit, flushOK); in {
		t.Fatal("seq 1 before seq 0 is out of order")
	}
	if len(committed) != 0 || o.PendingFor(0) != 1 {
		t.Fatalf("nothing may commit yet: %v", committed)
	}
	if in := o.Submit(Msg{Kind: MMPStore, Src: 0, Seq: 0, Val: 10}, commit, flushOK); !in {
		t.Fatal("seq 0 arrives in order")
	}
	if len(committed) != 2 || committed[0].Seq != 0 || committed[1].Seq != 1 {
		t.Fatalf("drain must commit 0 then 1: %v", committed)
	}
	if len(served) != 1 || served[0].Seq != 0 {
		t.Fatalf("parked flush must be served: %v", served)
	}
	if !o.Flush(Msg{Kind: MMPFlush, Src: 0, Seq: 1}) {
		t.Fatal("flush over committed writes answers immediately")
	}
}

func TestWBFlushDiscipline(t *testing.T) {
	p := NewWBProc()
	if v := p.StoreAdmit(1, 64); v != WBMiss {
		t.Fatalf("first store misses: %v", v)
	}
	p.BeginFetch(64)
	p.RecordDirty(64, 64, 1)
	if v := p.StoreAdmit(1, 128); v != WBMSHRFull {
		t.Fatalf("one MSHR busy: %v", v)
	}
	if v := p.StoreAdmit(1, 64); v != WBHit {
		t.Fatalf("store under the miss hits: %v", v)
	}
	p.RecordDirty(64, 72, 5)
	p.RecordDirty(64, 72, 3) // max-merge keeps 5
	if p.CanFlush() {
		t.Fatal("cannot flush with a fetch outstanding")
	}
	p.Fill(64)
	p.RecordDirty(128, 128, 2)
	var lines []uint64
	p.FlushLines(func(l uint64, vals map[uint64]uint64) {
		lines = append(lines, l)
		if l == 64 && vals[72] != 5 {
			t.Fatalf("max-merge lost a value: %v", vals)
		}
	})
	if len(lines) != 2 || lines[0] != 64 || lines[1] != 128 {
		t.Fatalf("flush must drain ascending lines: %v", lines)
	}
	if p.Pending != 2 || p.Drained() {
		t.Fatal("each flushed line awaits an ack")
	}
	if !p.Owned[64] {
		t.Fatal("write-back retains ownership")
	}
	p.NoteAck()
	p.NoteAck()
	if !p.Drained() {
		t.Fatal("acks must drain")
	}
}

func TestVariantsApply(t *testing.T) {
	cp := params()
	VariantNoNotifications.Apply(&cp)
	if !cp.NoNotifications {
		t.Fatal("no-notifications variant must set the flag")
	}
	VariantTinyTables.Apply(&cp)
	if cp.ProcUnackedCap != 1 || cp.DirNotiCapPerProc != 1 {
		t.Fatalf("tiny-tables variant: %+v", cp)
	}
	if len(CordVariants()) < 2 {
		t.Fatal("variant registry too small")
	}
}

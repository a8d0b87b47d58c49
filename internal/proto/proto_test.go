package proto

import (
	"testing"
	"testing/quick"

	"cord/internal/memsys"
	"cord/internal/noc"
	"cord/internal/proto/core"
	"cord/internal/sim"
	"cord/internal/stats"
)

// nullProto is a minimal protocol used to exercise the base machinery: every
// write-through store is sent to its home directory as a core.Msg and
// committed there by DirBase's commit driver with no ordering and no reply;
// barriers and write-back stores are treated the same.
type nullProto struct{}

func (nullProto) Name() string { return "null" }

type nullCPU struct{ ProcBase }

// Exec implements Adapter: stores are posted to their home directory and
// retire at once; barriers retire at once.
func (c *nullCPU) Exec(op Op) {
	if op.Kind == OpStoreWT || op.Kind == OpStoreWB {
		home := c.Sys.Map.HomeOf(op.Addr)
		c.Sys.Net.Send(c.ID, home, stats.ClassRelaxedData, HeaderBytes+op.Size,
			&core.Msg{Kind: core.MRelaxed, Src: c.Ix, Addr: uint64(op.Addr), Val: op.Value})
	}
	c.Retire()
}

// Ready implements Adapter; the null protocol never blocks on a condition
// of its own.
func (c *nullCPU) Ready(Wait) bool { panic("nullCPU: no protocol waits") }

// Receive implements Adapter; a null core gets nothing but poll responses.
func (c *nullCPU) Receive(*core.Msg) { panic("nullCPU: unexpected message") }

type nullDir struct{ DirBase }

// Receive implements DirAdapter: every store commits.
func (d *nullDir) Receive(m *core.Msg) { d.Commit(m) }

// Committed implements DirAdapter: stores are not acknowledged.
func (d *nullDir) Committed(*core.Msg) {}

func (nullProto) Build(sys *System, cores []noc.NodeID) []CPU {
	for _, id := range sys.Dirs() {
		d := &nullDir{}
		d.InitBase(sys, id, d)
	}
	cpus := make([]CPU, len(cores))
	for i, id := range cores {
		c := &nullCPU{}
		c.InitBase(sys, id, &sys.Run.Procs[i], c)
		cpus[i] = c
	}
	return cpus
}

func smallConfig() noc.Config {
	c := noc.CXLConfig()
	c.Hosts = 2
	c.TilesPerHost = 4
	c.JitterCycles = 0
	return c
}

func TestOpConstructorsAndValidate(t *testing.T) {
	a := memsys.Compose(0, 0, 0)
	p := Program{
		Compute(10),
		StoreRelaxed(a, 64),
		StoreRelease(a, 8, 1),
		AcquireLoad(a, 1),
		Barrier(Release),
		StoreWBRelaxed(a, 64),
		StoreWBRelease(a, 8, 2),
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	rlx, rel := p.Stores()
	if rlx != 2 || rel != 2 {
		t.Fatalf("Stores() = %d,%d want 2,2", rlx, rel)
	}
}

func TestValidateRejectsBadOps(t *testing.T) {
	a := memsys.Compose(0, 0, 0)
	cases := []Program{
		{Op{Kind: OpStoreWT, Ord: Relaxed, Addr: a, Size: 0}},
		{Op{Kind: OpStoreWT, Ord: Acquire, Addr: a, Size: 8}},
		{AcquireLoad(a, 0)},
		{Op{Kind: OpKind(99)}},
	}
	for i, p := range cases {
		if p.Validate() == nil {
			t.Errorf("case %d: Validate accepted bad program", i)
		}
	}
}

func TestExecRunsComputeOnlyProgram(t *testing.T) {
	sys := NewSystem(1, smallConfig(), RC)
	cores := []noc.NodeID{noc.CoreID(0, 0)}
	run, err := Exec(sys, nullProto{}, cores, []Program{{Compute(100), Compute(50)}})
	if err != nil {
		t.Fatal(err)
	}
	// 100 + 50 compute; steps add no extra delay between compute ops.
	if run.Time != 150 {
		t.Fatalf("Time = %d, want 150", run.Time)
	}
	if run.Procs[0].Ops != 2 {
		t.Fatalf("Ops = %d, want 2", run.Procs[0].Ops)
	}
}

func TestProducerConsumerFlagHandoff(t *testing.T) {
	sys := NewSystem(1, smallConfig(), RC)
	flag := memsys.Compose(1, 0, 0)
	prod := noc.CoreID(0, 0)
	cons := noc.CoreID(1, 0)
	progs := []Program{
		{Compute(500), StoreRelease(flag, 8, 1)},
		{AcquireLoad(flag, 1)},
	}
	run, err := Exec(sys, nullProto{}, []noc.NodeID{prod, cons}, progs)
	if err != nil {
		t.Fatal(err)
	}
	// Consumer must finish after the producer's store commits:
	// 500 compute + inter-host flight (>=300cy) + commit latency.
	if run.Procs[1].Finished < 800 {
		t.Fatalf("consumer finished at %d, expected after producer's release propagated", run.Procs[1].Finished)
	}
	if run.Procs[1].Stall[stats.StallAcquire] == 0 {
		t.Fatal("acquire stall not recorded")
	}
	// Traffic: the release crosses hosts; the consumer's poll stays local.
	if run.Traffic.Inter(stats.ClassRelaxedData) != uint64(HeaderBytes+8) {
		t.Fatalf("store traffic = %d", run.Traffic.Inter(stats.ClassRelaxedData))
	}
	if run.Traffic.IntraBytes[stats.ClassLoadReq] != LoadReqBytes {
		t.Fatalf("load req traffic = %d", run.Traffic.IntraBytes[stats.ClassLoadReq])
	}
	if run.Traffic.IntraBytes[stats.ClassLoadResp] != LoadRespBytes {
		t.Fatalf("load resp traffic = %d", run.Traffic.IntraBytes[stats.ClassLoadResp])
	}
}

func TestAcquireAlreadySatisfied(t *testing.T) {
	sys := NewSystem(1, smallConfig(), RC)
	flag := memsys.Compose(0, 1, 0)
	progs := []Program{
		{StoreRelease(flag, 8, 1), Compute(2000), AcquireLoad(flag, 1)},
	}
	run, err := Exec(sys, nullProto{}, []noc.NodeID{noc.CoreID(0, 0)}, progs)
	if err != nil {
		t.Fatal(err)
	}
	// The acquire happens long after commit; stall should be a round trip to
	// the local slice only (a few tens of cycles).
	if got := run.Procs[0].Stall[stats.StallAcquire]; got > 60 {
		t.Fatalf("acquire stall = %d, expected short local round-trip", got)
	}
}

func TestExecRejectsMismatchedPrograms(t *testing.T) {
	sys := NewSystem(1, smallConfig(), RC)
	_, err := Exec(sys, nullProto{}, []noc.NodeID{noc.CoreID(0, 0)}, nil)
	if err == nil {
		t.Fatal("expected mismatch error")
	}
}

func TestExecRejectsInvalidProgram(t *testing.T) {
	sys := NewSystem(1, smallConfig(), RC)
	bad := Program{Op{Kind: OpStoreWT, Addr: memsys.Compose(0, 0, 0)}}
	_, err := Exec(sys, nullProto{}, []noc.NodeID{noc.CoreID(0, 0)}, []Program{bad})
	if err == nil {
		t.Fatal("expected validation error")
	}
}

func TestMultipleWaitersSameFlag(t *testing.T) {
	sys := NewSystem(1, smallConfig(), RC)
	flag := memsys.Compose(1, 1, 0)
	cores := []noc.NodeID{noc.CoreID(0, 0), noc.CoreID(1, 0), noc.CoreID(1, 1)}
	progs := []Program{
		{Compute(1000), StoreRelease(flag, 8, 1)},
		{AcquireLoad(flag, 1)},
		{AcquireLoad(flag, 1)},
	}
	run, err := Exec(sys, nullProto{}, cores, progs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		if run.Procs[i].Finished < 1000 {
			t.Fatalf("waiter %d finished at %d before release", i, run.Procs[i].Finished)
		}
	}
}

func TestCommitValueMonotonic(t *testing.T) {
	sys := NewSystem(1, smallConfig(), RC)
	d := &nullDir{}
	d.InitBase(sys, noc.DirID(0, 0), d)
	a := memsys.Compose(0, 0, 0)
	d.CommitValue(a, 5)
	d.CommitValue(a, 3) // late, older store must not regress the flag
	if got := d.Store.Read(a); got != 5 {
		t.Fatalf("flag = %d, want 5 (monotonic)", got)
	}
}

func TestStoresCountProperty(t *testing.T) {
	a := memsys.Compose(0, 0, 0)
	f := func(rel []bool) bool {
		var p Program
		wantRel, wantRlx := 0, 0
		for _, r := range rel {
			if r {
				p = append(p, StoreRelease(a, 8, 1))
				wantRel++
			} else {
				p = append(p, StoreRelaxed(a, 8))
				wantRlx++
			}
		}
		rlx, rl := p.Stores()
		return rlx == wantRlx && rl == wantRel
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestModeString(t *testing.T) {
	if RC.String() != "RC" || TSO.String() != "TSO" {
		t.Fatal("Mode.String broken")
	}
}

func TestSystemDirs(t *testing.T) {
	sys := NewSystem(1, smallConfig(), RC)
	dirs := sys.Dirs()
	if len(dirs) != 8 {
		t.Fatalf("Dirs() = %d entries, want 8", len(dirs))
	}
}

func TestFinishTimeRecorded(t *testing.T) {
	sys := NewSystem(1, smallConfig(), RC)
	run, err := Exec(sys, nullProto{}, []noc.NodeID{noc.CoreID(0, 0)}, []Program{{Compute(33)}})
	if err != nil {
		t.Fatal(err)
	}
	if run.Procs[0].Finished != sim.Time(33) {
		t.Fatalf("Finished = %d, want 33", run.Procs[0].Finished)
	}
}

// TestSystemIndexRoundTrip checks the one NodeID <-> dense-index mapping on a
// multi-host config: every core and directory maps to a distinct index below
// Indices, the inverses recover it, and ascending index order is noc.SortIDs
// order.
func TestSystemIndexRoundTrip(t *testing.T) {
	sys := NewSystem(1, smallConfig(), RC) // 2 hosts x 4 tiles
	dirs := sys.Dirs()
	if len(dirs) != sys.Indices() {
		t.Fatalf("%d dirs but %d indices", len(dirs), sys.Indices())
	}
	sorted := append([]noc.NodeID(nil), dirs...)
	noc.SortIDs(sorted)
	for i, d := range sorted {
		c := noc.CoreID(d.Host, d.Tile)
		if sys.Index(d) != i || sys.Index(c) != i {
			t.Fatalf("Index(%v)=%d, Index(%v)=%d, want %d", d, sys.Index(d), c, sys.Index(c), i)
		}
		if sys.DirAt(i) != d || sys.CoreAt(i) != c {
			t.Fatalf("index %d maps back to %v and %v, want %v and %v", i, sys.DirAt(i), sys.CoreAt(i), d, c)
		}
	}
}

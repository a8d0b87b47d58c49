package proto

import (
	"testing"

	"cord/internal/memsys"
	"cord/internal/noc"
	"cord/internal/obs"
	"cord/internal/proto/core"
	"cord/internal/sim"
	"cord/internal/stats"
)

// TestStepComputeZeroAlloc pins the driver's hot path: sequencing a
// steady-state compute-only program allocates nothing per op.
func TestStepComputeZeroAlloc(t *testing.T) {
	sys := NewSystem(1, smallConfig(), RC)
	cores := []noc.NodeID{noc.CoreID(0, 0)}
	sys.Run.Procs = make([]stats.ProcStats, len(cores))
	cpus := nullProto{}.Build(sys, cores)
	prog := make(Program, 20000)
	for i := range prog {
		prog[i] = Compute(1)
	}
	cpus[0].Start(prog)
	now := sim.Time(100)
	if err := sys.EngOf(0).RunUntil(now); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		now += 100
		if err := sys.EngOf(0).RunUntil(now); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("compute-only steady state: %.2f allocs per 100 ops, want 0", allocs)
	}
	if got := sys.Run.Procs[0].Ops; got < 10000 {
		t.Fatalf("only %d ops executed", got)
	}
}

// gateCPU blocks every store on one protocol condition, open, so a test can
// drive the wait value directly.
type gateCPU struct {
	ProcBase
	open   bool
	retire bool
	execs  int
}

func (c *gateCPU) Exec(Op) {
	c.execs++
	if c.Await(Wait{On: WaitProto, Stall: stats.StallAckWait, Retire: c.retire}) {
		c.Retire()
	}
}

func (c *gateCPU) Ready(w Wait) bool {
	if w.On != WaitProto {
		panic("gateCPU: unknown wait")
	}
	return c.open
}

func (c *gateCPU) Receive(*core.Msg) { panic("gateCPU: no messages") }

// newGate returns an idle gateCPU on a traced system.
func newGate(retire bool) (*System, *gateCPU) {
	sys := NewSystem(1, smallConfig(), RC)
	sys.Observe(obs.New())
	sys.Run.Procs = make([]stats.ProcStats, 1)
	c := &gateCPU{retire: retire}
	c.InitBase(sys, noc.CoreID(0, 0), &sys.Run.Procs[0], c)
	return sys, c
}

// startGate runs one store through a gateCPU until it blocks.
func startGate(t *testing.T, retire bool) (*System, *gateCPU) {
	t.Helper()
	sys, c := newGate(retire)
	c.Start(Program{StoreRelaxed(memsys.Compose(0, 0, 0), 8)})
	if err := sys.EngOf(0).Run(); err != nil {
		t.Fatal(err)
	}
	if c.execs != 1 || c.Done() {
		t.Fatalf("store did not block: execs=%d done=%v", c.execs, c.Done())
	}
	return sys, c
}

func TestWakeWaitsForCondition(t *testing.T) {
	for _, retire := range []bool{false, true} {
		sys, c := startGate(t, retire)
		const blocked = 40
		sys.EngOf(0).Schedule(blocked/2, func() {
			// Still closed: neither resumes nor charges.
			c.Wake()
			if c.execs != 1 || c.PS.TotalStall() != 0 {
				t.Errorf("retire=%v: Wake on a closed wait resumed (execs=%d, stall=%d)",
					retire, c.execs, c.PS.TotalStall())
			}
		})
		sys.EngOf(0).Schedule(blocked, func() {
			c.open = true
			c.Wake()
			c.Wake() // already resumed: a no-op
		})
		if err := sys.EngOf(0).Run(); err != nil {
			t.Fatal(err)
		}
		// A retried op runs Exec again and passes its guard; a retired one
		// does not.
		wantExecs := 2
		if retire {
			wantExecs = 1
		}
		if c.execs != wantExecs || !c.Done() {
			t.Fatalf("retire=%v: execs=%d done=%v, want %d and done", retire, c.execs, c.Done(), wantExecs)
		}
		for k := stats.StallKind(0); k < stats.StallKind(len(c.PS.Stall)); k++ {
			want := sim.Time(0)
			if k == stats.StallAckWait {
				want = blocked
			}
			if got := c.PS.Stall[k]; got != want {
				t.Errorf("retire=%v: stall %v = %d, want %d", retire, k, got, want)
			}
		}
		var begins, ends int
		for _, ev := range c.Obs.Events() {
			switch ev.Kind {
			case obs.KStallBegin:
				begins++
			case obs.KStallEnd:
				ends++
				if ev.Dur != blocked || ev.Seq != uint64(stats.StallAckWait) {
					t.Errorf("retire=%v: stall end %+v", retire, ev)
				}
			}
		}
		if begins != 1 || ends != 1 {
			t.Errorf("retire=%v: %d stall begins, %d ends, want 1 each", retire, begins, ends)
		}
	}
}

func TestBlockTwicePanics(t *testing.T) {
	_, c := startGate(t, false)
	defer func() {
		if recover() == nil {
			t.Fatal("second Block did not panic")
		}
	}()
	c.Block(Wait{On: WaitProto, Stall: stats.StallRelease})
}

func TestRespondMatchesTag(t *testing.T) {
	_, c := newGate(false)
	c.Block(Wait{On: WaitResp, Arg: 7, Stall: stats.StallAcquire, Retire: true})
	if c.Respond(6) {
		t.Fatal("Respond resumed the core on a foreign tag")
	}
	if !c.Respond(7) {
		t.Fatal("Respond did not resume the core on its tag")
	}
	if c.Respond(7) {
		t.Fatal("Respond resumed the core twice")
	}
}

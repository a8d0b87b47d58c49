package proto_test

import (
	"testing"

	"cord/internal/memsys"
	"cord/internal/noc"
	"cord/internal/proto"
	"cord/internal/proto/so"
	"cord/internal/workload"
)

// marginalAllocs is the steady-state allocation count per op of running the
// one-core program prog(n) under SO: the difference between a 2n-op run and
// an n-op run, divided by n, so that system construction cancels out.
// Amortized growth (a slice or map doubling, race-detector bookkeeping) can
// leave a few allocations over n; callers allow roundTripSlack for it, far
// below the one whole object per op a regression adds.
func marginalAllocs(t *testing.T, prog func(n int) proto.Program) float64 {
	t.Helper()
	nc := noc.CXLConfig()
	nc.Hosts, nc.TilesPerHost, nc.JitterCycles = 1, 4, 0
	cores := []noc.NodeID{noc.CoreID(0, 0)}
	run := func(n int) float64 {
		p := prog(n)
		return testing.AllocsPerRun(3, func() {
			sys := proto.NewSystem(1, nc, proto.RC)
			if _, err := proto.Exec(sys, so.New(), cores, []proto.Program{p}); err != nil {
				t.Fatal(err)
			}
		})
	}
	const n = 2000
	return (run(2*n) - run(n)) / n
}

const roundTripSlack = 0.05

// TestRoundTripAllocs pins the wire's allocation cost: a request and its
// reply share one boxed core.Msg, and the directory's LLC access is
// scheduled through DirBase's pre-bound commit driver, so a steady-state
// round trip allocates at most the request's box.
func TestRoundTripAllocs(t *testing.T) {
	flag := memsys.Compose(0, 1, 0)
	t.Run("acquire-poll", func(t *testing.T) {
		got := marginalAllocs(t, func(n int) proto.Program {
			p := proto.Program{proto.StoreRelease(flag, 8, 1)}
			for i := 0; i < n; i++ {
				p = append(p, proto.AcquireLoad(flag, 1))
			}
			return p
		})
		if got > 1+roundTripSlack {
			t.Fatalf("acquire poll: %.2f allocs per round trip, want <= 1", got)
		}
	})
	t.Run("so-store-ack", func(t *testing.T) {
		// Alternate two addresses so that no store write-combines.
		a, b := memsys.Compose(0, 2, 0), memsys.Compose(0, 2, 64)
		got := marginalAllocs(t, func(n int) proto.Program {
			p := make(proto.Program, 0, n)
			for i := 0; i < n; i++ {
				p = append(p, proto.StoreRelaxed([]memsys.Addr{a, b}[i%2], 8))
			}
			return p
		})
		if got > 1+roundTripSlack {
			t.Fatalf("SO store->ack: %.2f allocs per round trip, want <= 1", got)
		}
	})
}

// TestPatternSourceZeroAlloc extends TestProgramSourceZeroAlloc to the
// streaming workload sources: draining a pattern rank's source, round
// refills included, never allocates.
func TestPatternSourceZeroAlloc(t *testing.T) {
	p, err := workload.App("CMC-2D") // sampled sizes: rounds differ in length
	if err != nil {
		t.Fatal(err)
	}
	const runs = 5
	srcs := make([]proto.OpSource, runs+1)
	for i := range srcs {
		_, s, err := p.Sources(noc.CXLConfig())
		if err != nil {
			t.Fatal(err)
		}
		srcs[i] = s[0]
	}
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		src := srcs[i]
		i++
		for {
			if _, ok := src.Next(0); !ok {
				return
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("pattern source Next allocated %.1f times per drain, want 0", allocs)
	}
}

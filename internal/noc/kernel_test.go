package noc

import (
	"testing"

	"cord/internal/obs"
	"cord/internal/sim"
	"cord/internal/stats"
)

// TestSerializationExactBoundaries pins the integer-ceil serialization
// against byte sizes that land exactly on cycle boundaries — the cases the
// old float "+0.999999" formulation was one ULP away from getting wrong.
func TestSerializationExactBoundaries(t *testing.T) {
	cases := []struct {
		bytesPerCycle float64
		bytes         int
		want          sim.Time
	}{
		// Table 1 bandwidth: 32 B/cycle.
		{32, 1, 1},
		{32, 31, 1},
		{32, 32, 1}, // exactly one cycle
		{32, 33, 2}, // one byte over
		{32, 64, 2}, // exactly two cycles
		{32, 65, 3},
		{32, 96, 3},
		{32, 1024, 32}, // exactly 32 cycles
		{32, 1025, 33},
		// Narrow integral link.
		{1, 7, 7},
		{3, 9, 3},
		{3, 10, 4},
		// Fractional bandwidth falls back to float ceil.
		{2.5, 5, 2}, // exactly two cycles
		{2.5, 4, 2}, // 1.6 cycles
		{2.5, 6, 3}, // 2.4 cycles
		{0.5, 3, 6}, // exactly six cycles
	}
	for _, tc := range cases {
		cfg := CXLConfig()
		cfg.LinkBytesPerCycle = tc.bytesPerCycle
		n := newTestNet(cfg, 1)
		if got := n.serialization(tc.bytes); got != tc.want {
			t.Errorf("serialization(%d B at %g B/cyc) = %d cycles, want %d",
				tc.bytes, tc.bytesPerCycle, got, tc.want)
		}
	}
}

// TestSerializationDelaysDelivery checks the serialization cycles actually
// appear in the end-to-end delivery time of an inter-host message.
func TestSerializationDelaysDelivery(t *testing.T) {
	cfg := CXLConfig()
	cfg.JitterCycles = 0
	n := newTestNet(cfg, 1)
	src, dst := CoreID(0, 0), DirID(1, 0)
	var arrived sim.Time
	n.Register(dst, func(_ NodeID, _ any) { arrived = n.now(1) })
	const bytes = 64 // exactly 2 cycles at 32 B/cycle
	n.round(t, func(uint64, any) { n.Send(src, dst, stats.ClassRelaxedData, bytes, nil) }, 0)
	want := n.Latency(src, dst) + 2
	if arrived != want {
		t.Fatalf("inter-host 64 B message arrived at %d, want latency %d + 2 serialization cycles",
			arrived, want-2)
	}
}

// TestPartitionedMatchesSingleEngineTiming pins the partitioned cross-host
// arrival time to the single-engine formula: the window barrier may delay
// *injection* into the destination shard, but delivery must land on exactly
// send time + latency + serialization (jitter off for exactness), whether
// the shards run serially or on parallel workers, and the bytes count as
// inter-host traffic on the source host.
func TestPartitionedMatchesSingleEngineTiming(t *testing.T) {
	cfg := CXLConfig()
	cfg.JitterCycles = 0
	src, dst := CoreID(0, 0), DirID(1, 3)
	const bytes = 64
	const sent = 7
	for _, workers := range []int{1, 2} {
		n := newTestNet(cfg, 1)
		var got sim.Time
		n.Register(dst, func(_ NodeID, _ any) { got = n.now(1) })
		n.cl.Engine(0).ScheduleAt(sent, func() { n.Send(src, dst, stats.ClassRelaxedData, bytes, "m") })
		if err := n.cl.Run(workers, n.Network); err != nil {
			t.Fatal(err)
		}
		if want := sent + n.Latency(src, dst) + n.serialization(bytes); got != want {
			t.Fatalf("workers=%d: partitioned delivery at cycle %d, single-engine formula gives %d",
				workers, got, want)
		}
		if it := n.traffics[0].Inter(stats.ClassRelaxedData); it != bytes {
			t.Fatalf("workers=%d: partitioned inter-host bytes %d, want %d", workers, it, bytes)
		}
	}
}

// TestCrossHostSendBeforeRunDelivered is the regression test for the
// pre-run trap: a cross-host send made before Cluster.Run, while every
// engine is still empty, sits only in an outbox. Run must still deliver it,
// at send time + latency + serialization, at every worker count.
func TestCrossHostSendBeforeRunDelivered(t *testing.T) {
	cfg := CXLConfig()
	cfg.JitterCycles = 0
	src, dst := CoreID(0, 0), DirID(1, 3)
	const bytes = 64
	for _, workers := range []int{1, 2} {
		n := newTestNet(cfg, 1)
		var got sim.Time
		delivered := 0
		n.Register(dst, func(_ NodeID, _ any) { got, delivered = n.now(1), delivered+1 })
		n.Send(src, dst, stats.ClassRelaxedData, bytes, "m")
		if err := n.cl.Run(workers, n.Network); err != nil {
			t.Fatal(err)
		}
		if delivered != 1 {
			t.Fatalf("workers=%d: pre-run cross-host send delivered %d times, want 1", workers, delivered)
		}
		if want := n.Latency(src, dst) + n.serialization(bytes); got != want {
			t.Fatalf("workers=%d: delivered at cycle %d, want %d", workers, got, want)
		}
	}
}

// TestPackIDRoundTrip covers the packed source word the monomorphic delivery
// events carry.
func TestPackIDRoundTrip(t *testing.T) {
	ids := []NodeID{
		CoreID(0, 0), DirID(0, 0), CoreID(7, 7), DirID(7, 7),
		CoreID(1000, 123456), DirID(0, 1<<20),
	}
	for _, id := range ids {
		if got := unpackID(packID(id)); got != id {
			t.Errorf("unpack(pack(%v)) = %v", id, got)
		}
	}
}

// TestPartitionedSendZeroAllocUntraced is the allocation regression guard
// for the message hot path: with no recorders (and with metrics-only
// recorders), steady-state intra-host sends, cross-host buffering (outbox
// append), the window-barrier Flush walk, and injection must all be
// allocation-free once buffers have grown. The driver event is scheduled
// through the slot-based ScheduleDeliver so the test harness itself adds no
// allocations.
func TestPartitionedSendZeroAllocUntraced(t *testing.T) {
	for _, recs := range [][]*obs.Recorder{nil, obs.NewMetricsOnly().Split(CXLConfig().Hosts)} {
		cfg := CXLConfig() // jitter on: the per-shard PRNG draw must not allocate
		n := newTestNet(cfg, 1).sinkAll()
		n.SetObservers(recs)
		src, dst, far := CoreID(0, 0), DirID(0, 5), DirID(1, 5)
		payload := any(&struct{ v int }{v: 1})
		k := 2048
		driver := func(_ uint64, _ any) {
			for i := 0; i < k; i++ {
				n.Send(src, dst, stats.ClassRelaxedData, 80, payload)
				n.Send(src, far, stats.ClassAck, 16, payload)
			}
		}
		n.round(t, driver, 0)
		k = 32
		avg := testing.AllocsPerRun(100, func() { n.round(t, driver, 0) })
		if avg != 0 {
			t.Fatalf("untraced Send (recorders=%v) allocates %.1f per 64-message round, want 0",
				recs != nil, avg)
		}
	}
}

// TestSendTracedAllocBounded bounds the sampled-path cost: one arrival
// closure per traced message, plus amortized event-buffer growth. The exact
// constant is implementation detail; the guard is that tracing stays O(1)
// allocations per message rather than regressing to per-hop closures.
func TestSendTracedAllocBounded(t *testing.T) {
	cfg := CXLConfig()
	n := newTestNet(cfg, 1)
	n.SetObservers(obs.New().Split(cfg.Hosts))
	src, dst := CoreID(0, 0), DirID(1, 5)
	n.Register(dst, func(_ NodeID, _ any) {})
	payload := any(&struct{ v int }{v: 1})
	k := 1024
	driver := func(_ uint64, _ any) {
		for i := 0; i < k; i++ {
			n.Send(src, dst, stats.ClassRelaxedData, 80, payload)
		}
	}
	n.round(t, driver, 0)
	k = 32
	avg := testing.AllocsPerRun(50, func() { n.round(t, driver, 0) })
	if perMsg := avg / 32; perMsg > 4 {
		t.Fatalf("traced Send allocates %.2f per message, want <= 4", perMsg)
	}
}

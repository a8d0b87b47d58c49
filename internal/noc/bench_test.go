package noc

import (
	"testing"

	"cord/internal/sim"
	"cord/internal/stats"
)

// benchNet builds a network with no-op handlers on the nodes the send
// benchmarks use. Batching sends and draining the engine keeps the event
// queue (and its backing array) small and steady-state, so the measurement
// covers the full schedule+deliver round trip.
func benchNet(cfg Config) (*sim.Engine, *Network) {
	eng := sim.NewEngine(1)
	var tr stats.Traffic
	net := New(eng, cfg, &tr)
	for h := 0; h < cfg.Hosts; h++ {
		for t := 0; t < cfg.TilesPerHost; t++ {
			net.Register(CoreID(h, t), func(src NodeID, payload any) {})
			net.Register(DirID(h, t), func(src NodeID, payload any) {})
		}
	}
	return eng, net
}

type benchMsg struct{ v uint64 }

func runSendBench(b *testing.B, cfg Config, src, dst NodeID) {
	eng, net := benchNet(cfg)
	payload := &benchMsg{v: 42}
	const batch = 1024
	b.ReportAllocs()
	b.ResetTimer()
	for n := b.N; n > 0; {
		k := batch
		if k > n {
			k = n
		}
		for i := 0; i < k; i++ {
			net.Send(src, dst, stats.ClassRelaxedData, 80, payload)
		}
		if err := eng.Run(); err != nil {
			b.Fatal(err)
		}
		n -= k
	}
}

// BenchmarkSendIntraHost: mesh-only hop, no serialization, no jitter.
func BenchmarkSendIntraHost(b *testing.B) {
	cfg := CXLConfig()
	cfg.JitterCycles = 0
	runSendBench(b, cfg, CoreID(0, 0), DirID(0, 5))
}

// BenchmarkSendInterHost: switch traversal with egress-port serialization.
func BenchmarkSendInterHost(b *testing.B) {
	cfg := CXLConfig()
	cfg.JitterCycles = 0
	runSendBench(b, cfg, CoreID(0, 0), DirID(1, 5))
}

// BenchmarkSendJittered: inter-host with delivery jitter, which adds one
// PRNG draw per message (the paper's adaptive-routing skew model).
func BenchmarkSendJittered(b *testing.B) {
	cfg := CXLConfig() // JitterCycles = 4
	runSendBench(b, cfg, CoreID(0, 0), DirID(1, 5))
}

// BenchmarkSendInterHostPartitioned: the same cross-host send on the
// host-partitioned network — outbox append, window-barrier Flush (outbox
// walk + inject), and slot-based delivery on the destination shard. Mixed
// with an intra-host send per pair so the measurement also covers shard-local
// scheduling through the cached per-host engine.
func BenchmarkSendInterHostPartitioned(b *testing.B) {
	cfg := CXLConfig() // jitter on: one per-shard PRNG draw per inter-host hop
	cl, net := partitionedNet(cfg, 1)
	src, dst, far := CoreID(0, 0), DirID(0, 5), DirID(1, 5)
	payload := any(&benchMsg{v: 42})
	k := 0
	driver := func(_ uint64, _ any) {
		for i := 0; i < k; i++ {
			net.Send(src, dst, stats.ClassRelaxedData, 80, payload)
			net.Send(src, far, stats.ClassAck, 16, payload)
		}
	}
	round := func(kk int) {
		k = kk
		var at sim.Time
		for _, e := range cl.Engines() {
			if now := e.Now(); now > at {
				at = now
			}
		}
		cl.Engine(0).ScheduleDeliverAt(at+1, driver, 0, nil)
		if err := cl.Run(1, net); err != nil {
			b.Fatal(err)
		}
	}
	round(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for n := b.N; n > 0; n -= 1024 {
		round(512) // 512 pairs = 1024 sends per round
	}
}

// BenchmarkSendAllToAllPartitioned is the many-source merge: every core of
// all 8 hosts sends to a directory on each of 4 other hosts per round, so
// each window's Flush merges 256 messages from every source outbox — the
// traffic shape of the paper's multi-host runs; one op is one send.
// BenchmarkSendInterHostPartitioned has a single source and never stresses
// the merge.
func BenchmarkSendAllToAllPartitioned(b *testing.B) {
	cfg := CXLConfig() // 8 hosts x 8 tiles, jitter on
	cl, net := partitionedNet(cfg, 1)
	payload := any(&benchMsg{v: 42})
	const fanout = 4
	perRound := cfg.Hosts * cfg.TilesPerHost * fanout
	drivers := make([]sim.DeliverFunc, cfg.Hosts)
	for h := range drivers {
		drivers[h] = func(_ uint64, _ any) {
			for t := 0; t < cfg.TilesPerHost; t++ {
				for i := 1; i <= fanout; i++ {
					dst := DirID((h+i)%cfg.Hosts, (t+i)%cfg.TilesPerHost)
					net.Send(CoreID(h, t), dst, stats.ClassRelaxedData, 80, payload)
				}
			}
		}
	}
	round := func() {
		var at sim.Time
		for _, e := range cl.Engines() {
			if now := e.Now(); now > at {
				at = now
			}
		}
		for h, e := range cl.Engines() {
			e.ScheduleDeliverAt(at+1, drivers[h], 0, nil)
		}
		if err := cl.Run(1, net); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		round()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := b.N; n > 0; n -= perRound {
		round()
	}
}

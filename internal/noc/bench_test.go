package noc

import (
	"testing"

	"cord/internal/stats"
)

type benchMsg struct{ v uint64 }

// runSendBench measures the full send + deliver round trip from src to dst.
// Batching sends into rounds that drain the cluster keeps the event queues
// (and their backing arrays) small and steady-state.
func runSendBench(b *testing.B, cfg Config, src, dst NodeID) {
	net := newTestNet(cfg, 1).sinkAll()
	payload := &benchMsg{v: 42}
	const batch = 1024
	k := 0
	driver := func(_ uint64, _ any) {
		for i := 0; i < k; i++ {
			net.Send(src, dst, stats.ClassRelaxedData, 80, payload)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := b.N; n > 0; n -= k {
		k = min(batch, n)
		net.round(b, driver, src.Host)
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
	net := newTestNet(cfg, 1).sinkAll()
	src, dst, far := CoreID(0, 0), DirID(0, 5), DirID(1, 5)
	payload := any(&benchMsg{v: 42})
	k := 1024
	driver := func(_ uint64, _ any) {
		for i := 0; i < k; i++ {
			net.Send(src, dst, stats.ClassRelaxedData, 80, payload)
			net.Send(src, far, stats.ClassAck, 16, payload)
		}
	}
	net.round(b, driver, 0)
	k = 512 // 512 pairs = 1024 sends per round
	b.ReportAllocs()
	b.ResetTimer()
	for n := b.N; n > 0; n -= 1024 {
		net.round(b, driver, 0)
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
	net := newTestNet(cfg, 1).sinkAll()
	payload := any(&benchMsg{v: 42})
	const fanout = 4
	perRound := cfg.Hosts * cfg.TilesPerHost * fanout
	hosts := make([]int, cfg.Hosts)
	for h := range hosts {
		hosts[h] = h
	}
	driver := func(src uint64, _ any) {
		h := int(src)
		for t := 0; t < cfg.TilesPerHost; t++ {
			for i := 1; i <= fanout; i++ {
				dst := DirID((h+i)%cfg.Hosts, (t+i)%cfg.TilesPerHost)
				net.Send(CoreID(h, t), dst, stats.ClassRelaxedData, 80, payload)
			}
		}
	}
	for i := 0; i < 4; i++ {
		net.round(b, driver, hosts...)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := b.N; n > 0; n -= perRound {
		net.round(b, driver, hosts...)
	}
}

package sim

import (
	"sync/atomic"
	"testing"
)

// chanExchanger is a minimal Exchanger for cluster tests that mirrors the
// NoC's ownership contract, so the race detector sees the real access
// pattern: each shard appends cross-shard (time, destination shard, fn)
// triples to its own outbox while windows run in parallel, and Flush —
// single-threaded, at the window barrier — walks the outboxes in shard order
// and each in post order, injecting every due message, so same-time arrivals
// at one shard are ordered by (source shard, post order) as in the NoC. Any
// barrier bug (a worker still running while Flush reads its outbox, a window
// overrunning its deadline into another shard's territory) is a data race
// here.
type chanExchanger struct {
	c      *Cluster
	outbox [][]xchMsg // by source shard, owned by that shard's worker
}

type xchMsg struct {
	at  Time
	dst int
	fn  func()
}

func newChanExchanger(c *Cluster) *chanExchanger {
	return &chanExchanger{c: c, outbox: make([][]xchMsg, c.Shards())}
}

// post buffers fn for shard dst at time at; call it only from events of
// shard src.
func (x *chanExchanger) post(src int, at Time, dst int, fn func()) {
	x.outbox[src] = append(x.outbox[src], xchMsg{at: at, dst: dst, fn: fn})
}

func (x *chanExchanger) Flush(horizon Time) (remaining int, earliest Time) {
	for src, ob := range x.outbox {
		keep := ob[:0]
		for _, m := range ob {
			if m.at <= horizon {
				x.c.Engine(m.dst).ScheduleAt(m.at, m.fn)
				continue
			}
			if remaining == 0 || m.at < earliest {
				earliest = m.at
			}
			remaining++
			keep = append(keep, m)
		}
		x.outbox[src] = keep
	}
	return remaining, earliest
}

func TestClusterShardZeroMatchesPlainEngine(t *testing.T) {
	// A 1-shard cluster must be bit-identical to NewEngine(seed): same seed,
	// same PRNG stream, same execution.
	c := NewCluster(42, 1, 100)
	plain := NewEngine(42)
	for i := 0; i < 16; i++ {
		a, b := c.Engine(0).Rand().Int63(), plain.Rand().Int63()
		if a != b {
			t.Fatalf("draw %d: shard 0 PRNG %d != plain engine %d", i, a, b)
		}
	}
}

func TestClusterWindowedCompletion(t *testing.T) {
	// A chain of cross-shard pings must complete even though each hop lands
	// in a later window, and regardless of the worker count.
	for _, workers := range []int{1, 2, 4, 8} {
		const shards = 4
		const window = Time(50)
		c := NewCluster(7, shards, window)
		ex := newChanExchanger(c)
		var hops int
		var send func(from int)
		send = func(from int) {
			if hops >= 40 {
				return
			}
			hops++
			dst := (from + 1) % shards
			at := c.Engine(from).Now() + window // minimum legal cross-shard delay
			ex.post(from, at, dst, func() { send(dst) })
		}
		c.Engine(0).Schedule(1, func() { send(0) })
		if err := c.Run(workers, ex); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if hops != 40 {
			t.Fatalf("workers=%d: %d/40 hops delivered", workers, hops)
		}
	}
}

func TestClusterDrainsLateBufferedMessages(t *testing.T) {
	// A message buffered during the final window — when every engine queue
	// is empty afterwards — must still be delivered: the scheduler re-probes
	// the exchanger after each window.
	c := NewCluster(1, 2, Time(10))
	ex := newChanExchanger(c)
	delivered := false
	c.Engine(0).Schedule(5, func() {
		ex.post(0, c.Engine(0).Now()+10, 1, func() { delivered = true })
	})
	if err := c.Run(1, ex); err != nil {
		t.Fatal(err)
	}
	if !delivered {
		t.Fatal("message buffered in the last window was never injected")
	}
}

func TestClusterExecutedSumsShards(t *testing.T) {
	c := NewCluster(3, 3, Time(10))
	for i := 0; i < 3; i++ {
		for j := 0; j < i+1; j++ {
			c.Engine(i).Schedule(Time(j+1), func() {})
		}
	}
	if err := c.Run(2, nil); err != nil {
		t.Fatal(err)
	}
	if got := c.Executed(); got != 6 {
		t.Fatalf("Executed() = %d, want 6", got)
	}
}

func TestClusterMaxEventsPropagates(t *testing.T) {
	c := NewCluster(9, 2, Time(10))
	c.SetMaxEvents(4)
	var tick func()
	n := 0
	tick = func() {
		n++
		c.Engine(1).Schedule(1, tick)
	}
	c.Engine(1).Schedule(1, tick)
	err := c.Run(1, nil)
	if err == nil {
		t.Fatal("runaway shard did not trip the MaxEvents guard")
	}
}

func TestClusterWorkerCountInvariance(t *testing.T) {
	// Identical topology, seed, and cross-shard schedule must execute the
	// same number of events and leave the same shard clocks for any worker
	// count — the scheduler only parallelizes, never reorders.
	type outcome struct {
		executed uint64
		sum      uint64
	}
	run := func(workers int) outcome {
		const shards = 8
		c := NewCluster(11, shards, Time(20))
		ex := newChanExchanger(c)
		var sum atomic.Uint64
		for s := 0; s < shards; s++ {
			s := s
			var tick func()
			rounds := 0
			tick = func() {
				rounds++
				sum.Add(uint64(c.Engine(s).Now()) * uint64(s+1))
				if rounds < 12 {
					c.Engine(s).Schedule(Time(3+s%5), tick)
					if rounds%3 == 0 {
						dst := (s + 3) % shards
						at := c.Engine(s).Now() + 20
						ex.post(s, at, dst, func() { sum.Add(uint64(at)) })
					}
				}
			}
			c.Engine(s).Schedule(Time(1+s), tick)
		}
		if err := c.Run(workers, ex); err != nil {
			t.Fatal(err)
		}
		return outcome{executed: c.Executed(), sum: sum.Load()}
	}
	want := run(1)
	for _, w := range []int{2, 4, 8} {
		if got := run(w); got != want {
			t.Fatalf("workers=%d: outcome %+v != serial %+v", w, got, want)
		}
	}
}

// windowCapture records every WindowRecord it observes (copying the
// cluster-owned slices, as the contract requires).
type windowCapture struct {
	recs []WindowRecord
}

func (w *windowCapture) ObserveWindow(r *WindowRecord) {
	cp := *r
	cp.ShardStartNs = append([]int64(nil), r.ShardStartNs...)
	cp.ShardBusyNs = append([]int64(nil), r.ShardBusyNs...)
	cp.ShardEvents = append([]uint64(nil), r.ShardEvents...)
	w.recs = append(w.recs, cp)
}

func TestClusterWindowObserver(t *testing.T) {
	for _, workers := range []int{1, 4} {
		const shards = 4
		c := NewCluster(5, shards, Time(25))
		cap := &windowCapture{}
		c.SetWindowObserver(cap)
		ex := newChanExchanger(c)
		for s := 0; s < shards; s++ {
			s := s
			rounds := 0
			var tick func()
			tick = func() {
				rounds++
				if rounds < 10 {
					c.Engine(s).Schedule(Time(2+s), tick)
					if rounds%4 == 0 {
						dst := (s + 1) % shards
						ex.post(s, c.Engine(s).Now()+25, dst, func() {})
					}
				}
			}
			c.Engine(s).Schedule(Time(1+s), tick)
		}
		if err := c.Run(workers, ex); err != nil {
			t.Fatal(err)
		}
		if len(cap.recs) == 0 {
			t.Fatalf("workers=%d: no windows observed", workers)
		}
		var events uint64
		for wi, r := range cap.recs {
			if r.Deadline != r.Anchor+c.window-1 {
				t.Fatalf("workers=%d window %d: bounds [%d,%d] not one window wide",
					workers, wi, r.Anchor, r.Deadline)
			}
			if r.Active < 1 || r.Active > shards {
				t.Fatalf("workers=%d window %d: active=%d", workers, wi, r.Active)
			}
			if r.Workers > r.Active {
				t.Fatalf("workers=%d window %d: workers=%d > active=%d",
					workers, wi, r.Workers, r.Active)
			}
			active := 0
			for s := 0; s < shards; s++ {
				if r.ShardStartNs[s] < 0 {
					if r.ShardBusyNs[s] != 0 || r.ShardEvents[s] != 0 {
						t.Fatalf("inactive shard %d has busy/events", s)
					}
					continue
				}
				active++
				events += r.ShardEvents[s]
				// Tiling: start lag + busy must fit inside the window wall, so
				// the implied barrier wait is non-negative.
				if spent := r.ShardStartNs[s] + r.ShardBusyNs[s]; spent > r.WallNs {
					t.Fatalf("workers=%d window %d shard %d: start+busy %dns > wall %dns",
						workers, wi, s, spent, r.WallNs)
				}
			}
			if active != r.Active {
				t.Fatalf("workers=%d window %d: %d shards reported, Active=%d",
					workers, wi, active, r.Active)
			}
			if workers == 1 && (r.StealAttempts != 0 || r.StealHits != 0) {
				t.Fatalf("serial window reported steals: %d/%d", r.StealHits, r.StealAttempts)
			}
			if workers > 1 && uint64(r.Active) != r.StealHits {
				t.Fatalf("workers=%d window %d: %d steal hits for %d active shards",
					workers, wi, r.StealHits, r.Active)
			}
		}
		if events != c.Executed() {
			t.Fatalf("workers=%d: observed %d events, cluster executed %d",
				workers, events, c.Executed())
		}
	}
}

// BenchmarkClusterWindowSerial measures the sharded scheduler's overhead at
// one worker: the same churn as BenchmarkEngineChurn, split over 8 shards
// with no cross-shard traffic, so the delta to the plain engine is pure
// window bookkeeping.
func BenchmarkClusterWindowSerial(b *testing.B) {
	benchCluster(b, 1)
}

// BenchmarkClusterWindowParallel is the same at 8 workers. On a single-core
// machine this measures goroutine hand-off overhead, not speedup; see
// BENCH_kernel.json's parallel rows (recorded with num_cpu) for throughput.
func BenchmarkClusterWindowParallel(b *testing.B) {
	benchCluster(b, 8)
}

func benchCluster(b *testing.B, workers int) {
	const shards = 8
	c := NewCluster(1, shards, Time(300))
	// Each shard owns its generator and stop flag: shards run concurrently
	// within a window, so anything they share would race.
	stop := make([]bool, shards)
	for s := 0; s < shards; s++ {
		eng := c.Engine(s)
		lcg := uint64(0x9E3779B97F4A7C15) + uint64(s)
		next := func() Time {
			lcg = lcg*6364136223846793005 + 1442695040888963407
			return 1 + Time(lcg>>58)
		}
		var tick func()
		tick = func() {
			if !stop[s] {
				eng.Schedule(next(), tick)
			}
		}
		for i := 0; i < 128; i++ {
			eng.Schedule(next(), tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	target := c.Executed() // 0
	for i := 0; i < b.N; i++ {
		target += 1024
		for c.Executed() < target {
			t, ok := c.earliest()
			if !ok {
				b.Fatal("cluster drained")
			}
			if err := c.runWindow(t, t+c.window-1, workers); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	for s := range stop {
		stop[s] = true
	}
	_ = c.Run(1, nil)
}

package noc

import (
	"testing"

	"cord/internal/sim"
	"cord/internal/stats"
)

// mergeTag identifies one cross-host send: its source host, its index in
// that host's send order, and the cycle it was sent.
type mergeTag struct {
	src, idx int
	sentAt   sim.Time
}

// arrival is one logged delivery at a directory.
type arrival struct {
	at  sim.Time
	tag mergeTag
}

// before reports whether a must be delivered before b under the merge
// contract: per destination engine, (arrival time, source host, send order).
func (a arrival) before(b arrival) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.tag.src != b.tag.src {
		return a.tag.src < b.tag.src
	}
	return a.tag.idx < b.tag.idx
}

// flushLog is a FlushObserver that keeps every barrier's census.
type flushLog struct{ injected, retained []int }

func (f *flushLog) RecordFlush(injected, retained, _ int) {
	f.injected = append(f.injected, injected)
	f.retained = append(f.retained, retained)
}

// logArrivals registers directory handlers on n that append each arrival to
// its destination host's list in the returned log, and no-op core handlers.
func logArrivals(n *testNet) [][]arrival {
	got := make([][]arrival, n.cfg.Hosts)
	for h := range got {
		for t := 0; t < n.cfg.TilesPerHost; t++ {
			n.Register(DirID(h, t), func(_ NodeID, p any) {
				got[h] = append(got[h], arrival{at: n.now(h), tag: p.(mergeTag)})
			})
		}
	}
	n.sinkAll()
	return got
}

// TestFlushMergeOrderProperty drives random all-to-all cross-host traffic on
// an 8-host partitioned network and checks the Exchanger contract at every
// destination: cross-host deliveries arrive in non-decreasing (time, source
// host, send order). A 1-byte-per-cycle link and messages of up to 256 bytes
// queue sends at the egress ports for many windows, so retained messages
// routinely meet newer sends from other hosts in a later Flush.
func TestFlushMergeOrderProperty(t *testing.T) {
	cfg := CXLConfig() // 8x8, jitter on
	cfg.LinkBytesPerCycle = 1
	w := cfg.Lookahead()
	const rounds = 60
	for _, seed := range []int64{1, 2, 3, 4} {
		n := newTestNet(cfg, seed)
		got := logArrivals(n)
		cl := n.cl
		var fl flushLog
		n.SetFlushObserver(&fl)
		sent := make([]int, cfg.Hosts)
		for h := 0; h < cfg.Hosts; h++ {
			h, eng := h, cl.Engine(h)
			r := 0
			var tick func()
			tick = func() {
				rng := eng.Rand()
				for k := rng.Intn(4); k >= 0; k-- {
					dh := (h + 1 + rng.Intn(cfg.Hosts-1)) % cfg.Hosts
					tag := mergeTag{src: h, idx: sent[h], sentAt: eng.Now()}
					sent[h]++
					// Port-tile endpoints (no mesh hops) and send times and
					// sizes in multiples of 64 cycles leave jitter as the
					// only spread, so same-cycle arrivals from different
					// hosts are common.
					n.Send(CoreID(h, cfg.PortTile), DirID(dh, cfg.PortTile),
						stats.ClassRelaxedData, 64*(1+rng.Intn(4)), tag)
				}
				if r++; r < rounds {
					eng.Schedule(sim.Time(64*(1+rng.Intn(4))), tick)
				}
			}
			eng.ScheduleAt(64, tick)
		}
		n.run(t)

		total, ties := 0, 0
		var maxTransit sim.Time
		for dh, as := range got {
			total += len(as)
			for i, a := range as {
				if a.tag.src == dh {
					t.Fatalf("seed %d: host %d logged its own send %+v", seed, dh, a)
				}
				if tr := a.at - a.tag.sentAt; tr > maxTransit {
					maxTransit = tr
				}
				if i == 0 {
					continue
				}
				p := as[i-1]
				if !p.before(a) {
					t.Fatalf("seed %d: host %d delivered %+v after %+v", seed, dh, a, p)
				}
				if p.at == a.at && p.tag.src != a.tag.src {
					ties++
				}
			}
		}
		want := 0
		for _, s := range sent {
			want += s
		}
		if total != want {
			t.Fatalf("seed %d: %d deliveries for %d sends", seed, total, want)
		}
		// The run must exercise what the contract is about: same-cycle
		// arrivals from different hosts, and messages held past many horizons.
		if ties == 0 {
			t.Errorf("seed %d: no same-cycle cross-source ties; the property is vacuous", seed)
		}
		if maxTransit < 4*w {
			t.Errorf("seed %d: longest transit %d cycles, want >= %d (several windows)", seed, maxTransit, 4*w)
		}
		t.Logf("seed %d: %d deliveries, %d cross-source ties, longest transit %d cycles, %d flushes",
			seed, total, ties, maxTransit, len(fl.injected))
	}
}

// TestFlushRetainedMessageKeepsSourceOrder pins the case the outbox walk
// exists for: a message from host 3, retained across earlier barriers, ties
// on arrival time with a newer message from host 1. Host 1's must be
// delivered first, exactly as if both had been sent in the same window.
func TestFlushRetainedMessageKeepsSourceOrder(t *testing.T) {
	cfg := CXLConfig()
	cfg.JitterCycles = 0
	cfg.LinkBytesPerCycle = 1
	w := cfg.Lookahead()
	n := newTestNet(cfg, 1)
	got := logArrivals(n)
	cl := n.cl
	var fl flushLog
	n.SetFlushObserver(&fl)
	dst := DirID(0, cfg.PortTile) // zero mesh hops on both ends
	src1, src3 := CoreID(1, cfg.PortTile), CoreID(3, cfg.PortTile)

	// Host 3 sends at cycle 1; 4w bytes serialize for 4w cycles, so it
	// arrives at 1 + w + 4w. Host 1 sends two windows later and sizes its
	// message to arrive on the same cycle.
	const s3 = 1
	at := s3 + w + 4*w
	s1 := s3 + 2*w
	cl.Engine(3).ScheduleAt(s3, func() {
		n.Send(src3, dst, stats.ClassRelaxedData, int(4*w), mergeTag{src: 3})
	})
	cl.Engine(1).ScheduleAt(s1, func() {
		n.Send(src1, dst, stats.ClassRelaxedData, int(at-s1-w), mergeTag{src: 1})
	})
	n.run(t)

	if len(got[0]) != 2 {
		t.Fatalf("host 0 got %d deliveries, want 2", len(got[0]))
	}
	for _, a := range got[0] {
		if a.at != at {
			t.Fatalf("delivery %+v at cycle %d, want %d", a, a.at, at)
		}
	}
	if first, second := got[0][0].tag.src, got[0][1].tag.src; first != 1 || second != 3 {
		t.Fatalf("delivered from host %d then host %d, want 1 then 3", first, second)
	}
	// Host 3's message must have been held alone past at least one barrier
	// before the flush that injected both.
	heldAlone, both := -1, -1
	for i := range fl.injected {
		if fl.injected[i] == 0 && fl.retained[i] == 1 && heldAlone < 0 {
			heldAlone = i
		}
		if fl.injected[i] == 2 {
			both = i
		}
	}
	if heldAlone < 0 || both < heldAlone {
		t.Fatalf("flush census injected=%v retained=%v: host 3's message was not retained before the joint flush",
			fl.injected, fl.retained)
	}
}

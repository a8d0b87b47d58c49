package main

import (
	"fmt"
	"slices"
	"time"

	"cord/internal/noc"
	"cord/internal/obs"
	"cord/internal/sim"
	"cord/internal/stats"
)

// The NoC and kernel self times come from replaying a run's message sends
// outside the protocol layer. A capture run streams every KSend event the
// network records (time, source, destination, class, bytes, latency) into
// per-host sinks; the replay then re-issues the same sends at the same
// simulated times on a fresh cluster of the same fabric:
//
//	(a) kernel only: a bare event per send at its send time on the source
//	    host's engine, and one at its arrival time (send time plus the
//	    captured latency) on the destination host's engine;
//	(b) through noc.Send, into no-op handlers, so the network computes
//	    delays, accounts traffic, buffers cross-host sends and merges them
//	    at each window barrier.
//
// Both replays fire two events per send on the same fabric, so (b) - (a)
// is the network's own cost and (a) the kernel's.

// sendRec is one captured send, packed to 32 bytes: a large run sends
// millions of messages.
type sendRec struct {
	at, dur  sim.Time
	src, dst packedNode
	bytes    int32
	class    uint8
}

// packedNode is a node ID as host<<16 | tile<<1 | dir.
type packedNode uint32

func packNode(n obs.Node) packedNode {
	p := packedNode(n.Host)<<16 | packedNode(n.Tile)<<1
	if n.Dir {
		p |= 1
	}
	return p
}

func (p packedNode) host() int { return int(p >> 16) }

func (p packedNode) id() noc.NodeID {
	host, tile := p.host(), int(p>>1&0x7fff)
	if p&1 == 1 {
		return noc.DirID(host, tile)
	}
	return noc.CoreID(host, tile)
}

// captureSink is one host shard's streaming sink: it keeps the shard's
// send stream, in the order the shard executed it, and counts every event
// recorded.
type captureSink struct {
	sends  []sendRec
	events uint64
}

func (c *captureSink) Record(ev obs.Event) {
	c.events++
	if ev.Kind != obs.KSend {
		return
	}
	c.sends = append(c.sends, sendRec{
		at: ev.At, dur: ev.Dur, bytes: int32(ev.Bytes), class: uint8(ev.Class),
		src: packNode(ev.Src), dst: packNode(ev.Dst),
	})
}

// captureRecorders returns one streaming recorder per host, each feeding
// its own sink.
func captureRecorders(hosts int) ([]*obs.Recorder, []*captureSink) {
	recs := make([]*obs.Recorder, hosts)
	sinks := make([]*captureSink, hosts)
	for h := range recs {
		sinks[h] = &captureSink{}
		recs[h] = obs.NewStreaming(sinks[h])
	}
	return recs, sinks
}

// replayResult is one replay's cost.
type replayResult struct {
	wallS   float64
	events  uint64
	gc      goDelta
	traffic stats.Traffic // (b) only
}

// replay re-issues the captured per-host send streams on a fresh cluster
// of nc's fabric advanced by workers; viaNoC selects replay (b).
func replay(nc noc.Config, seed int64, workers int, streams [][]sendRec, viaNoC bool) (replayResult, error) {
	if len(streams) != nc.Hosts || nc.Hosts < 2 {
		return replayResult{}, fmt.Errorf("replay: %d streams for %d hosts (partitioned fabrics only)", len(streams), nc.Hosts)
	}
	var arrivals [][]sim.Time
	if !viaNoC {
		arrivals = arrivalTimes(streams)
	}
	cl := sim.NewCluster(seed, nc.Hosts, nc.Lookahead())
	traffics := make([]stats.Traffic, nc.Hosts)
	var net *noc.Network
	var ex sim.Exchanger
	if viaNoC {
		tp := make([]*stats.Traffic, nc.Hosts)
		for h := range tp {
			tp[h] = &traffics[h]
		}
		net = noc.NewPartitioned(cl.Engines(), nc, tp)
		drop := func(noc.NodeID, any) {}
		for h := 0; h < nc.Hosts; h++ {
			for t := 0; t < nc.TilesPerHost; t++ {
				net.Register(noc.CoreID(h, t), drop)
				net.Register(noc.DirID(h, t), drop)
			}
		}
		ex = net
	}
	for h, sends := range streams {
		eng := cl.Engine(h)
		if viaNoC {
			chain(eng, len(sends), func(i int) sim.Time { return sends[i].at }, func(i int) {
				r := &sends[i]
				net.Send(r.src.id(), r.dst.id(), stats.MsgClass(r.class), int(r.bytes), nil)
			})
			continue
		}
		chain(eng, len(sends), func(i int) sim.Time { return sends[i].at }, nil)
		arr := arrivals[h]
		chain(eng, len(arr), func(i int) sim.Time { return arr[i] }, nil)
	}
	g0 := readGo()
	t0 := time.Now()
	err := cl.Run(workers, ex)
	res := replayResult{wallS: time.Since(t0).Seconds(), gc: g0.to(readGo()), events: cl.Executed()}
	for h := range traffics {
		res.traffic.Merge(&traffics[h])
	}
	return res, err
}

// arrivalTimes returns, per destination host, the arrival times of the
// sends addressed to it, in order.
func arrivalTimes(streams [][]sendRec) [][]sim.Time {
	arr := make([][]sim.Time, len(streams))
	for _, sends := range streams {
		for i := range sends {
			h := sends[i].dst.host()
			arr[h] = append(arr[h], sends[i].at+sends[i].dur)
		}
	}
	for _, a := range arr {
		slices.Sort(a)
	}
	return arr
}

// chain schedules n events on eng at times at(0) <= at(1) <= ..., each
// scheduling the next when it fires, so only one is pending at a time;
// each, when not nil, runs inside event i.
func chain(eng *sim.Engine, n int, at func(int) sim.Time, each func(int)) {
	if n == 0 {
		return
	}
	i := 0
	var fire func()
	fire = func() {
		if each != nil {
			each(i)
		}
		i++
		if i < n {
			eng.ScheduleAt(at(i), fire)
		}
	}
	eng.ScheduleAt(at(0), fire)
}

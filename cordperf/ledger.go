package main

import (
	"time"

	rt "cord/internal/obs/runtime"
	"cord/internal/proto"
	"cord/internal/stats"
)

// The traced run (--trace 1) is the per-layer ledger. For an engine
// workload it first runs one untraced pass, exactly as --trace 0 does, and
// then, one case at a time to bound memory:
//
//  1. a decorated run: every op source wrapped in timedSource and the
//     runtime collector attached, which gives source and cluster costs;
//  2. a capture run: per-host streaming recorders on the network, which
//     gives the recorder's cost and the send stream;
//  3. replays (a) and (b) of that stream (replay.go).
//
// Layer self times for the untraced pass are then:
//
//	workload / kvsvc  Pattern.Programs / kvsvc.Config.Build
//	proto.system      proto.NewSystem
//	source            Σ timed Next calls (decorated run)
//	sim               replay (a)
//	noc               replay (b) - (a)
//	proto             Exec - (b) - source
//
// and unattributed_frac = 1 - Σ self / untraced pass wall. The decorated
// and capture runs must reproduce the untraced run's digests, and replay
// (b) must reproduce its traffic exactly.

// perLayer lists every per-layer metric with its unit and direction, and
// the layer-to-end-to-end map: the end-to-end metric a change in the layer
// metric should move, on the workloads where it is exercised. Every traced
// run reports all of them; a layer a workload does not exercise reads 0.
// BENCHMARK.json's per_layer list mirrors the first three columns.
var perLayer = []struct{ name, unit, better, moves, on string }{
	{"workload.programs_s", "s", "lower", "setup_s", "paper-apps"},
	{"workload.generated_ops", "count", "lower", "setup_s", "paper-apps"},
	{"workload.ns_per_generated_op", "ns", "lower", "setup_s", "paper-apps"},
	{"kvsvc.build_s", "s", "lower", "setup_s", "kv-open"},
	{"source.next_calls", "count", "lower", "throughput_per_s", "kv-open"},
	{"source.ns_per_next.p50", "ns", "lower", "throughput_per_s", "kv-open"},
	{"source.ns_per_next.p99", "ns", "lower", "throughput_per_s", "kv-open"},
	{"source.self_s", "s", "lower", "throughput_per_s", "kv-open"},
	{"sim.events", "count", "lower", "throughput_per_s", "paper-apps kv-open"},
	{"sim.ns_per_event", "ns", "lower", "throughput_per_s", "paper-apps kv-open"},
	{"sim.allocs_per_event", "allocs/event", "lower", "throughput_per_s", "paper-apps kv-open"},
	{"sim.self_s", "s", "lower", "throughput_per_s", "paper-apps kv-open"},
	{"noc.sends", "count", "lower", "throughput_per_s", "paper-apps"},
	{"noc.inter_host_sends", "count", "lower", "throughput_per_s", "paper-apps"},
	{"noc.ns_per_send", "ns", "lower", "throughput_per_s", "paper-apps"},
	{"noc.allocs_per_send", "allocs/send", "lower", "throughput_per_s", "paper-apps"},
	{"noc.self_s", "s", "lower", "throughput_per_s", "paper-apps"},
	{"cluster.windows", "count", "lower", "throughput_per_s cpu_s", "kv-open"},
	{"cluster.efficiency", "ratio", "higher", "throughput_per_s cpu_s", "kv-open"},
	{"cluster.busy_s", "s", "lower", "throughput_per_s cpu_s", "kv-open"},
	{"cluster.barrier_s", "s", "lower", "throughput_per_s cpu_s", "kv-open"},
	{"cluster.start_lag_s", "s", "lower", "throughput_per_s cpu_s", "kv-open"},
	{"cluster.merge_s", "s", "lower", "throughput_per_s cpu_s", "kv-open"},
	{"cluster.events_per_window", "events/window", "higher", "throughput_per_s cpu_s", "kv-open"},
	{"proto.system_s", "s", "lower", "setup_s", "paper-apps kv-open"},
	{"proto.exec_s", "s", "lower", "throughput_per_s", "paper-apps kv-open"},
	{"proto.ns_per_event.MP", "ns", "lower", "throughput_per_s", "paper-apps kv-open"},
	{"proto.ns_per_event.CORD", "ns", "lower", "throughput_per_s", "paper-apps kv-open"},
	{"proto.ns_per_event.SO", "ns", "lower", "throughput_per_s", "paper-apps kv-open"},
	{"proto.ns_per_event.WB", "ns", "lower", "throughput_per_s", "paper-apps kv-open"},
	{"proto.allocs_per_event.MP", "allocs/event", "lower", "throughput_per_s", "paper-apps kv-open"},
	{"proto.allocs_per_event.CORD", "allocs/event", "lower", "throughput_per_s", "paper-apps kv-open"},
	{"proto.allocs_per_event.SO", "allocs/event", "lower", "throughput_per_s", "paper-apps kv-open"},
	{"proto.allocs_per_event.WB", "allocs/event", "lower", "throughput_per_s", "paper-apps kv-open"},
	{"proto.bytes_per_event", "B/event", "lower", "throughput_per_s peak_heap_mb", "paper-apps kv-open"},
	{"proto.self_s", "s", "lower", "throughput_per_s", "paper-apps kv-open"},
	{"proto.self_ns_per_event", "ns", "lower", "throughput_per_s", "paper-apps kv-open"},
	{"obs.events_recorded", "count", "lower", "none", "traced runs only"},
	{"obs.ns_per_record", "ns", "lower", "none", "traced runs only"},
	{"litmus.instances", "count", "higher", "throughput_per_s", "litmus-gate"},
	{"litmus.states", "count", "lower", "throughput_per_s", "litmus-gate"},
	{"litmus.states_per_s", "1/s", "higher", "throughput_per_s", "litmus-gate"},
	{"litmus.instance_ms.p50", "ms", "lower", "throughput_per_s", "litmus-gate"},
	{"litmus.instance_ms.p99", "ms", "lower", "throughput_per_s", "litmus-gate"},
	{"litmus.verify_s", "s", "lower", "throughput_per_s", "litmus-gate"},
	{"litmus.reduction_ratio", "ratio", "higher", "throughput_per_s peak_heap_mb", "litmus-gate"},
	{"litmus.peak_frontier", "count", "lower", "peak_heap_mb", "litmus-gate"},
	{"go.gc_cpu_s", "s", "lower", "throughput_per_s cpu_s", "paper-apps kv-open"},
	{"go.alloc_mb", "MiB", "lower", "throughput_per_s cpu_s", "paper-apps kv-open"},
	{"ledger.pass_s", "s", "lower", "throughput_per_s", "all"},
	{"unattributed_frac", "ratio", "lower", "none", "all"},
	{"trace_overhead_frac", "ratio", "lower", "none", "all"},
}

// newLayerSet returns every per-layer metric at 0; set overwrites the ones
// a workload measures.
func newLayerSet() metricSet {
	m := metricSet{}
	for _, l := range perLayer {
		m.set(l.name, 0, l.unit)
	}
	return m
}

// put sets a per-layer metric, keeping its declared unit.
func (m metricSet) put(name string, v float64) {
	mt, ok := m[name]
	if !ok {
		panic("cordperf: undeclared per-layer metric " + name)
	}
	mt.Value = v
	m[name] = mt
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// engineLedger accumulates one traced engine run.
type engineLedger struct {
	base enginePass

	decoratedS float64
	source     latencyHist
	cluster    rt.Bucket

	captureS  float64
	obsEvents uint64

	sends, interSends uint64
	a, b              replayResult
}

// traceCase runs the decorated run, the capture run and both replays of
// one case.
func (l *engineLedger) traceCase(c *simCase, ck *checks, overheadNs uint64) {
	// 1. Decorated run.
	in, err := c.prepare()
	if err != nil {
		ck.record(c.key, "decorated", c.outcome(nil, &in, err))
		return
	}
	sys := c.newSystem()
	col := rt.NewCollector(c.nc.Hosts)
	sys.AttachRuntime(col)
	srcs, timed := wrapSources(in.sources(), overheadNs)
	t0 := time.Now()
	run, err := proto.ExecSources(sys, builder(c.scheme), in.cores, srcs)
	l.decoratedS += time.Since(t0).Seconds()
	ck.record(c.key, "decorated", c.outcome(run, &in, err))
	for _, s := range timed {
		l.source.merge(&s.hist)
	}
	rep := col.Snapshot()
	addBucket(&l.cluster, &rep.Totals)

	// 2. Capture run.
	in, err = c.prepare()
	if err != nil {
		ck.record(c.key, "capture", c.outcome(nil, &in, err))
		return
	}
	sys = c.newSystem()
	recs, sinks := captureRecorders(c.nc.Hosts)
	sys.Net.SetObservers(recs)
	t0 = time.Now()
	run, err = c.exec(sys, &in)
	l.captureS += time.Since(t0).Seconds()
	ck.record(c.key, "capture", c.outcome(run, &in, err))
	if err != nil {
		return
	}
	streams := make([][]sendRec, len(sinks))
	var sends uint64
	for h, s := range sinks {
		streams[h] = s.sends
		l.obsEvents += s.events
		sends += uint64(len(s.sends))
		for i := range s.sends {
			if s.sends[i].src.host() != s.sends[i].dst.host() {
				l.interSends++
			}
		}
	}
	l.sends += sends
	ck.compare(sends == totalMsgs(&run.Traffic), "%s capture: %d sends recorded, traffic counts %d messages",
		c.key, sends, totalMsgs(&run.Traffic))

	// 3. Replays.
	a, errA := replay(c.nc, c.seed, c.workers, streams, false)
	b, errB := replay(c.nc, c.seed, c.workers, streams, true)
	ck.compare(errA == nil && errB == nil, "%s replay: %v %v", c.key, errA, errB)
	ck.compare(b.traffic == run.Traffic, "%s replay: traffic %v differs from the run's %v", c.key, b.traffic, run.Traffic)
	l.a.add(a)
	l.b.add(b)
}

func totalMsgs(t *stats.Traffic) uint64 {
	var n uint64
	for i := range t.InterMsgs {
		n += t.InterMsgs[i] + t.IntraMsgs[i]
	}
	return n
}

func (r *replayResult) add(o replayResult) {
	r.wallS += o.wallS
	r.events += o.events
	r.gc.add(o.gc)
}

func addBucket(dst, src *rt.Bucket) {
	dst.Windows += src.Windows
	dst.WallNs += src.WallNs
	dst.FlushNs += src.FlushNs
	dst.CapNs += src.CapNs
	dst.FlushCapNs += src.FlushCapNs
	dst.BusyNs += src.BusyNs
	dst.IdleNs += src.IdleNs
	dst.BarrierNs += src.BarrierNs
	dst.Events += src.Events
}

// tracedEngine runs the ledger of an engine workload.
func tracedEngine(mk func(int64) []simCase) func(options, *checks) metricSet {
	return func(o options, ck *checks) metricSet {
		cases := mk(o.seed)
		overhead := clockOverheadNs()
		var l engineLedger
		l.base = runEnginePass(cases)
		for i := range cases {
			ck.record(cases[i].key, "untraced", l.base.outcomes[i])
		}
		for i := range cases {
			l.traceCase(&cases[i], ck, overhead)
		}
		return l.metrics(cases)
	}
}

func (l *engineLedger) metrics(cases []simCase) metricSet {
	m := newLayerSet()
	var prepS, systemS, execS float64
	var events uint64
	var genOps int
	var setupGo, execGo goDelta
	schemeExec := map[string]float64{}
	schemeEvents := map[string]uint64{}
	schemeAllocs := map[string]uint64{}
	for i, c := range cases {
		t := &l.base.timings[i]
		prepS += t.prepS
		systemS += t.systemS
		execS += t.execS
		events += t.events
		genOps += t.genOps
		setupGo.add(t.setupGo)
		execGo.add(t.execGo)
		schemeExec[c.scheme] += t.execS
		schemeEvents[c.scheme] += t.events
		schemeAllocs[c.scheme] += t.execGo.allocObjects
	}
	if cases[0].pattern != nil {
		m.put("workload.programs_s", prepS)
		m.put("workload.generated_ops", float64(genOps))
		m.put("workload.ns_per_generated_op", 1e9*ratio(prepS, float64(genOps)))
	} else {
		m.put("kvsvc.build_s", prepS)
	}
	sourceS := float64(l.source.sumNs) / 1e9
	m.put("source.next_calls", float64(l.source.n))
	m.put("source.ns_per_next.p50", l.source.quantile(0.5))
	m.put("source.ns_per_next.p99", l.source.quantile(0.99))
	m.put("source.self_s", sourceS)

	m.put("sim.events", float64(events))
	m.put("sim.ns_per_event", 1e9*ratio(l.a.wallS, float64(l.a.events)))
	m.put("sim.allocs_per_event", ratio(float64(l.a.gc.allocObjects), float64(l.a.events)))
	m.put("sim.self_s", l.a.wallS)

	nocS := l.b.wallS - l.a.wallS
	m.put("noc.sends", float64(l.sends))
	m.put("noc.inter_host_sends", float64(l.interSends))
	m.put("noc.ns_per_send", 1e9*ratio(nocS, float64(l.sends)))
	m.put("noc.allocs_per_send", ratio(float64(l.b.gc.allocObjects)-float64(l.a.gc.allocObjects), float64(l.sends)))
	m.put("noc.self_s", nocS)

	cl := &l.cluster
	m.put("cluster.windows", float64(cl.Windows))
	m.put("cluster.efficiency", ratio(float64(cl.BusyNs+cl.FlushNs), float64(cl.CapNs+cl.FlushCapNs)))
	m.put("cluster.busy_s", float64(cl.BusyNs)/1e9)
	m.put("cluster.barrier_s", float64(cl.BarrierNs)/1e9)
	m.put("cluster.start_lag_s", float64(cl.IdleNs)/1e9)
	m.put("cluster.merge_s", float64(cl.FlushNs)/1e9)
	m.put("cluster.events_per_window", ratio(float64(cl.Events), float64(cl.Windows)))

	protoS := execS - l.b.wallS - sourceS
	m.put("proto.system_s", systemS)
	m.put("proto.exec_s", execS)
	for s, e := range schemeExec {
		m.put("proto.ns_per_event."+s, 1e9*ratio(e, float64(schemeEvents[s])))
		m.put("proto.allocs_per_event."+s, ratio(float64(schemeAllocs[s]), float64(schemeEvents[s])))
	}
	m.put("proto.bytes_per_event", ratio(float64(execGo.allocBytes), float64(events)))
	m.put("proto.self_s", protoS)
	m.put("proto.self_ns_per_event", 1e9*ratio(protoS, float64(events)))

	m.put("obs.events_recorded", float64(l.obsEvents))
	m.put("obs.ns_per_record", 1e9*ratio(l.captureS-execS, float64(l.obsEvents)))

	setupGo.add(execGo)
	m.put("go.gc_cpu_s", setupGo.gcCPU)
	m.put("go.alloc_mb", float64(setupGo.allocBytes)/(1<<20))
	m.put("ledger.pass_s", l.base.wallS)
	m.put("unattributed_frac", 1-ratio(prepS+systemS+execS, l.base.wallS))
	m.put("trace_overhead_frac", ratio(l.decoratedS-execS, execS))
	return m
}

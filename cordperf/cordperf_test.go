package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"

	"cord/internal/noc"
	"cord/internal/obs"
	"cord/internal/proto"
	"cord/internal/workload"
	"cord/internal/workload/kvsvc"
)

// smallKV is a kv-open case shrunk to 4 hosts and a few hundred requests,
// still open loop with two host shards per window.
func smallKV(scheme string) simCase {
	nc := noc.CXLConfig()
	nc.Hosts = 4
	cfg := kvsvc.Default()
	cfg.Clients, cfg.Requests = 6, 8
	cfg.OpenLoop, cfg.ArrivalCycles = true, 3000
	return simCase{key: "small/" + scheme, scheme: scheme, nc: nc, seed: 7, workers: 2, kv: &cfg}
}

// smallPaper is one Table-2 application cut to three rounds.
func smallPaper(scheme string) simCase {
	p := workload.Apps()[2]
	p.Rounds = 3
	return simCase{key: p.Name + "/" + scheme, scheme: scheme, nc: noc.CXLConfig(), seed: 42, workers: 1, pattern: &p}
}

func mustPrepare(t *testing.T, c *simCase) simInputs {
	t.Helper()
	in, err := c.prepare()
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestTimedSourceKeepsKVRunIdentical(t *testing.T) {
	for _, scheme := range schemes {
		c := smallKV(scheme)
		in := mustPrepare(t, &c)
		run, err := c.exec(c.newSystem(), &in)
		want := c.outcome(run, &in, err)
		if want.problem != "" {
			t.Fatal(want.problem)
		}

		in = mustPrepare(t, &c)
		srcs, timed := wrapSources(in.sources(), 0)
		run, err = proto.ExecSources(c.newSystem(), builder(scheme), in.cores, srcs)
		got := c.outcome(run, &in, err)
		if got.problem != "" || got.digest != want.digest {
			t.Fatalf("%s: decorated run digest %s (%s), plain %s", scheme, got.digest, got.problem, want.digest)
		}
		var calls uint64
		for _, s := range timed {
			calls += s.hist.n
		}
		if calls < uint64(got.work) {
			t.Fatalf("%s: %d Next calls timed for %v requests", scheme, calls, got.work)
		}
	}
}

// A KV source records a req-done event per completed request only into the
// recorder AttachCore handed it, so the events show the decorator forwarded
// the call.
func TestTimedSourceForwardsAttachCore(t *testing.T) {
	c := smallKV("CORD")
	in := mustPrepare(t, &c)
	sys := c.newSystem()
	rec := obs.New()
	sys.Observe(rec)
	srcs, _ := wrapSources(in.sources(), 0)
	run, err := proto.ExecSources(sys, builder(c.scheme), in.cores, srcs)
	o := c.outcome(run, &in, err)
	if o.problem != "" {
		t.Fatal(o.problem)
	}
	done := 0
	for _, ev := range rec.Events() {
		if ev.Kind == obs.KReqDone {
			done++
		}
	}
	if done == 0 || float64(done) != o.work {
		t.Fatalf("%d req-done events for %v completed requests", done, o.work)
	}
}

func TestReplayReproducesTraffic(t *testing.T) {
	for _, c := range []simCase{smallPaper("CORD"), smallPaper("WB"), smallKV("SO")} {
		in := mustPrepare(t, &c)
		sys := c.newSystem()
		recs, sinks := captureRecorders(c.nc.Hosts)
		sys.Net.SetObservers(recs)
		run, err := c.exec(sys, &in)
		if err != nil {
			t.Fatal(err)
		}
		streams := make([][]sendRec, len(sinks))
		var sends uint64
		for h, s := range sinks {
			streams[h] = s.sends
			sends += uint64(len(s.sends))
		}
		if sends == 0 || sends != totalMsgs(&run.Traffic) {
			t.Fatalf("%s: captured %d sends, traffic counts %d messages", c.key, sends, totalMsgs(&run.Traffic))
		}
		a, err := replay(c.nc, c.seed, c.workers, streams, false)
		if err != nil {
			t.Fatal(err)
		}
		b, err := replay(c.nc, c.seed, c.workers, streams, true)
		if err != nil {
			t.Fatal(err)
		}
		if b.traffic != run.Traffic {
			t.Fatalf("%s: replayed traffic %v, run's %v", c.key, b.traffic, run.Traffic)
		}
		if a.events != 2*sends || b.events != 2*sends {
			t.Fatalf("%s: replays fired %d and %d events for %d sends", c.key, a.events, b.events, sends)
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json the metric lists must match.
type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestMetricNamesMatchBenchmarkFile(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	e2e := metricSet{}
	endToEnd(e2e, []float64{1}, []float64{1}, []float64{1}, []float64{1})
	var declared []string
	for _, m := range bf.EndToEnd {
		declared = append(declared, m.Name)
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end metric %s (%s): emitted as %+v", m.Name, m.Unit, got)
		}
	}
	if len(declared) != len(e2e) {
		t.Errorf("BENCHMARK.json declares %v, the benchmark emits %d end-to-end metrics", declared, len(e2e))
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the benchmark %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		l := perLayer[i]
		if m.Name != l.name || m.Unit != l.unit || m.Better != l.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, benchmark %+v", i, m, l)
		}
	}
	for name := range newLayerSet() {
		declared = append(declared, name)
	}
	for _, n := range declared {
		if !validName.MatchString(n) {
			t.Errorf("metric name %q does not match %s", n, validName)
		}
	}
	slices.Sort(declared)
	for i := 1; i < len(declared); i++ {
		if declared[i] == declared[i-1] {
			t.Errorf("metric name %q is used twice", declared[i])
		}
	}
}

func TestEmitEndsWithResultLine(t *testing.T) {
	var buf bytes.Buffer
	ck := newChecks(nil)
	ck.attempted, ck.failed = 3, 1
	m := metricSet{}
	m.set("x.y_s", 1.5, "s")
	if err := emit(&buf, hostEnv("paper-apps"), m, ck); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range res {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if !slices.Equal(keys, []string{"attempted", "correct", "failed", "metrics"}) {
		t.Fatalf("result keys %v", keys)
	}
	if string(res["correct"]) != "false" || string(res["failed"]) != "1" {
		t.Fatalf("result %s", lines[len(lines)-1])
	}
}

func TestLatencyHistQuantiles(t *testing.T) {
	var h latencyHist
	for ns := uint64(1); ns <= 1000; ns++ {
		h.add(ns)
	}
	for _, q := range []float64{0.5, 0.99} {
		got, want := h.quantile(q), q*1000
		if got < want*0.9 || got > want*1.1 {
			t.Errorf("quantile(%v) = %v, want about %v", q, got, want)
		}
	}
	if h.n != 1000 || h.sumNs != 500500 {
		t.Errorf("n %d sum %d", h.n, h.sumNs)
	}
}

package cord

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"cord/internal/exp"
	"cord/internal/noc"
	rt "cord/internal/obs/runtime"
	"cord/internal/proto"
)

func checkJSON(t *testing.T, label string, b []byte) {
	t.Helper()
	if !json.Valid(b) {
		t.Errorf("%s is not valid JSON", label)
	}
}

// Runtime telemetry measures the simulator's own wall-clock behavior, which
// makes it non-deterministic by nature — so the quarantine contract matters:
// attaching a Collector must leave every deterministic artifact byte-identical
// to a run without one, and the collected report must internally account for
// all the wall time it claims to decompose. These tests gate both halves.

// runArtifactsRuntime is runArtifacts with a runtime Collector riding the run;
// it returns the deterministic artifacts plus the telemetry snapshot.
func runArtifactsRuntime(t *testing.T, hosts, workers int, seed int64) (trace, metrics, stats []byte, rep *rt.Report) {
	t.Helper()
	s := CXLSystem()
	s.Hosts = hosts
	s.Seed = seed
	s.SimWorkers = workers
	col := rt.NewCollector(hosts)
	r, o, err := SimulateObserved(Alltoall(hosts, 3), CORD, s, TraceOptions{Runtime: col})
	if err != nil {
		t.Fatalf("hosts=%d workers=%d: %v", hosts, workers, err)
	}
	var tb, mb bytes.Buffer
	if err := o.WriteJSONL(&tb); err != nil {
		t.Fatal(err)
	}
	if err := o.WriteMetricsJSON(&mb); err != nil {
		t.Fatal(err)
	}
	sb, err := json.Marshal(r.Raw())
	if err != nil {
		t.Fatal(err)
	}
	return tb.Bytes(), mb.Bytes(), sb, col.Snapshot()
}

// TestTelemetryPreservesByteIdentity runs each configuration twice with
// telemetry attached and once without: all three must export byte-identical
// traces, metrics, and statistics. A collector that perturbed scheduling,
// PRNG draws, or injection order would diverge here.
func TestTelemetryPreservesByteIdentity(t *testing.T) {
	for _, hosts := range []int{2, 8} {
		for _, workers := range []int{1, 4} {
			hosts, workers := hosts, workers
			t.Run(fmt.Sprintf("hosts=%d,workers=%d", hosts, workers), func(t *testing.T) {
				baseTrace, baseMetrics, baseStats := runArtifacts(t, hosts, workers, 42)
				tr1, me1, st1, rep := runArtifactsRuntime(t, hosts, workers, 42)
				tr2, me2, st2, _ := runArtifactsRuntime(t, hosts, workers, 42)
				checkIdentical(t, "telemetry-vs-plain trace", baseTrace, tr1)
				checkIdentical(t, "telemetry-vs-plain metrics", baseMetrics, me1)
				checkIdentical(t, "telemetry-vs-plain stats", baseStats, st1)
				checkIdentical(t, "double-run trace", tr1, tr2)
				checkIdentical(t, "double-run metrics", me1, me2)
				checkIdentical(t, "double-run stats", st1, st2)
				if rep.Totals.Windows == 0 || rep.Totals.Events == 0 {
					t.Fatalf("collector recorded nothing: %+v", rep.Totals)
				}
			})
		}
	}
}

// TestScalingReportAccounting is the acceptance check for the telemetry math
// on a real 8-host x 4-worker run: every shard's busy+idle+barrier must tile
// its total window wall time within 1%, the shard event counts must sum to
// the run total, and the analysis must produce a sane efficiency.
func TestScalingReportAccounting(t *testing.T) {
	_, _, _, rep := runArtifactsRuntime(t, 8, 4, 42)

	if rep.Hosts != 8 || rep.Workers < 1 || rep.Workers > 4 {
		t.Fatalf("report header: hosts=%d workers=%d", rep.Hosts, rep.Workers)
	}
	if rep.Totals.Windows == 0 {
		t.Fatal("no windows recorded")
	}
	var shardEvents uint64
	for _, s := range rep.PerShard {
		shardEvents += s.Events
		if s.Windows == 0 {
			t.Errorf("shard %d was never active", s.Shard)
			continue
		}
		tiled := s.BusyNs + s.IdleNs + s.BarrierNs
		diff := int64(tiled) - int64(s.WallNs)
		if diff < 0 {
			diff = -diff
		}
		if uint64(diff)*100 > s.WallNs {
			t.Errorf("shard %d: busy+idle+barrier = %dns vs wall %dns (off by %dns, > 1%%)",
				s.Shard, tiled, s.WallNs, diff)
		}
	}
	if shardEvents == 0 || shardEvents != rep.Totals.Events {
		t.Fatalf("per-shard events sum %d != totals %d", shardEvents, rep.Totals.Events)
	}
	if rep.Totals.Injected == 0 {
		t.Error("all-to-all run merged no cross-host messages")
	}

	sc := rt.Analyze(rep)
	if sc.Efficiency <= 0 || sc.Efficiency > 1.0001 {
		t.Errorf("efficiency %.4f out of (0,1]", sc.Efficiency)
	}
	if sum := sc.Efficiency + sc.LostBarrier + sc.LostSteal + sc.LostMerge; sum < 0.99 || sum > 1.01 {
		t.Errorf("efficiency+losses = %.4f, want ~1", sum)
	}

	var buf bytes.Buffer
	if err := rt.WriteScaling(&buf, rep); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "parallel efficiency") {
		t.Errorf("scaling report output:\n%s", buf.String())
	}
}

// TestRuntimeChromeTrackOptIn checks the Chrome export contract: the default
// export carries no simulator-runtime track, the WithRuntime variant does,
// and both are valid JSON.
func TestRuntimeChromeTrackOptIn(t *testing.T) {
	s := CXLSystem()
	s.Hosts = 4
	s.SimWorkers = 2
	col := rt.NewCollector(4)
	_, o, err := SimulateObserved(Alltoall(4, 2), CORD, s, TraceOptions{Runtime: col})
	if err != nil {
		t.Fatal(err)
	}
	var plain, withRT bytes.Buffer
	if err := o.WriteChromeTrace(&plain); err != nil {
		t.Fatal(err)
	}
	if err := o.WriteChromeTraceRuntime(&withRT, col.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain.String(), "simulator runtime") {
		t.Error("default Chrome export leaked the runtime track")
	}
	if !strings.Contains(withRT.String(), "simulator runtime") ||
		!strings.Contains(withRT.String(), `"cat":"simruntime"`) {
		t.Error("WriteChromeTraceRuntime missing the runtime track group")
	}
	checkJSON(t, "plain chrome trace", plain.Bytes())
	checkJSON(t, "runtime chrome trace", withRT.Bytes())
}

// TestSingleHostTelemetryWindows: a single-host system is a one-shard
// cluster, so a collector attached to it observes real windows, and the
// per-shard event counts account for every event the run executed.
func TestSingleHostTelemetryWindows(t *testing.T) {
	nc := exp.NetConfig(exp.CXL)
	nc.Hosts = 1
	sys := proto.NewSystem(1, nc, proto.RC)
	col := rt.NewCollector(1)
	sys.AttachRuntime(col)
	b, err := builder(CORD)
	if err != nil {
		t.Fatal(err)
	}
	flag := ComposeAddr(0, 3, 0)
	prod := Program{StoreRelaxed(ComposeAddr(0, 1, 0), 64), StoreRelease(flag, 8, 1)}
	cons := Program{AcquireLoad(flag, 1), ComputeOp(20)}
	cores := []noc.NodeID{noc.CoreID(0, 0), noc.CoreID(0, 5)}
	if _, err := proto.Exec(sys, b, cores, []Program{prod, cons}); err != nil {
		t.Fatal(err)
	}
	rep := col.Snapshot()
	if rep.Totals.Windows == 0 {
		t.Fatal("single-host run recorded no windows")
	}
	var events uint64
	for _, s := range rep.PerShard {
		events += s.Events
	}
	if events == 0 || events != sys.Executed() {
		t.Fatalf("per-shard events sum to %d, system executed %d", events, sys.Executed())
	}
}

// TestPublicRuntimeHelpers drives the exported wrappers external callers use
// (the collector type is internal, so NewRuntimeCollector is the only way to
// construct one from outside the module).
func TestPublicRuntimeHelpers(t *testing.T) {
	s := CXLSystem()
	s.Hosts = 4
	s.SimWorkers = 2
	col := NewRuntimeCollector()
	if _, _, err := SimulateObserved(Alltoall(4, 2), CORD, s, TraceOptions{Runtime: col}); err != nil {
		t.Fatal(err)
	}
	rep := col.Snapshot()
	if rep.Hosts != 4 {
		t.Fatalf("lazy-sized collector reports %d hosts, want 4", rep.Hosts)
	}
	sc := AnalyzeRuntime(rep)
	if sc.Windows == 0 || sc.Efficiency <= 0 {
		t.Fatalf("analysis empty: %+v", sc)
	}
	var buf bytes.Buffer
	if err := WriteRuntimeScaling(&buf, rep); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "parallel efficiency") {
		t.Errorf("scaling table output:\n%s", buf.String())
	}
}

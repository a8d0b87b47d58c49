// Command cordsim runs a single workload under one protocol on the
// simulated multi-PU system and prints its measurements.
//
// Examples:
//
//	cordsim -workload MOCFE -proto CORD -fabric CXL
//	cordsim -workload micro -store 64 -sync 4096 -fanout 3 -proto SO
//	cordsim -workload PR -proto CORD -tso
//	cordsim -workload ATA -proto CORD -compare
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"cord"
	"cord/internal/obs"
	"cord/internal/obs/live"
	rt "cord/internal/obs/runtime"
)

func main() {
	var (
		name      = flag.String("workload", "micro", "application name (PR, SSSP, PAD, TQH, HSTI, TRNS, MOCFE, CMC-2D, BigFFT, CR, ATA), 'micro', or 'kvsvc'")
		protoF    = flag.String("proto", "CORD", "protocol: CORD, SO, MP, WB")
		fabric    = flag.String("fabric", "CXL", "interconnect: CXL or UPI")
		tso       = flag.Bool("tso", false, "enforce TSO instead of release consistency")
		compare   = flag.Bool("compare", false, "run all protocols and print a comparison")
		store     = flag.Int("store", 64, "micro: relaxed store granularity (bytes)")
		sync      = flag.Int("sync", 4096, "micro: synchronization granularity (bytes)")
		fanout    = flag.Int("fanout", 1, "micro: communication fan-out (hosts)")
		rounds    = flag.Int("rounds", 100, "micro/ATA: rounds; graph: iterations")
		verts     = flag.Int("vertices", 4096, "graph-pr/graph-sssp: vertex count")
		degree    = flag.Int("degree", 8, "graph-pr/graph-sssp: average out-degree")
		seed      = flag.Int64("seed", 42, "simulation seed")
		hosts     = flag.Int("hosts", 0, "override the host count (0 = Table 1 default of 8; validated up to 256)")
		cores     = flag.Int("cores", 0, "override the cores per host (0 = Table 1 default of 8)")
		mesh      = flag.Int("mesh", 0, "override the intra-host mesh columns (0 = Table 1 default of 4)")
		workers   = flag.Int("sim-workers", 0, "host shards advanced concurrently by the partitioned engine (<=1 serial; results identical for any value)")
		kvClients = flag.Int("kv-clients", 32, "kvsvc: client sessions per server core")
		kvReqs    = flag.Int("kv-requests", 24, "kvsvc: requests per client session")
		kvGetPct  = flag.Int("kv-get-pct", 50, "kvsvc: percentage of requests that are gets (0-100)")
		kvValue   = flag.Int("kv-value-bytes", 256, "kvsvc: value payload size (bytes)")
		kvShards  = flag.Int("kv-shards", 4, "kvsvc: KV shards per server core")
		kvServers = flag.Int("kv-servers", 2, "kvsvc: server cores per host")
		kvThink   = flag.Float64("kv-think", 2000, "kvsvc: mean closed-loop think time (cycles)")
		kvArrival = flag.Float64("kv-arrival", 0, "kvsvc: mean open-loop inter-arrival time per client (cycles); > 0 switches from closed to open loop")
		kvLoads   = flag.String("kv-loads", "0.5,1,2,4", "kvsvc: comma-separated offered-load multipliers for the curve")

		dump = flag.String("dump-trace", "", "write the workload's trace to this file and exit")
		from = flag.String("from-trace", "", "replay a cordtrace file instead of a named workload")
		char = flag.Bool("characterize", false, "print Table 2-style workload statistics and exit")

		traceOut    = flag.String("trace-out", "", "write a Chrome trace_event JSON (Perfetto-loadable) of protocol events to this file, plus a .jsonl event stream alongside")
		traceSample = flag.Int("trace-sample", 1, "record 1-in-N traced transactions (deterministic; metrics stay complete)")
		metricsOut  = flag.String("metrics-out", "", "write the observability metrics registry as JSON to this file")
		httpAddr    = flag.String("http", "", "serve live introspection (/metrics, /progress, /runtime, /debug/pprof) on this address, e.g. localhost:6060")
		progressF   = flag.Bool("progress", false, "print progress lines to stderr while simulating")
		runtimeOut  = flag.String("runtime-report", "", "write the simulator-runtime telemetry report (per-shard window timings, steal/barrier/merge attribution) as JSON to this file; analyze with 'cordtrace scaling'")
	)
	flag.Parse()

	sys := cord.CXLSystem()
	if strings.EqualFold(*fabric, "UPI") {
		sys = cord.UPISystem()
	}
	sys.Seed = *seed
	if *hosts > 0 {
		sys.Hosts = *hosts
	}
	if *cores > 0 {
		sys.CoresPerHost = *cores
	}
	sys.MeshCols = *mesh
	sys.SimWorkers = *workers
	if *tso {
		sys.Model = cord.TotalStoreOrder
	}

	if k := strings.ToLower(*name); k == "graph-pr" || k == "graph-sssp" {
		runGraph(k, *verts, *degree, *rounds, *seed,
			cord.Protocol(strings.ToUpper(*protoF)), sys, *char)
		return
	}
	if strings.ToLower(*name) == "kvsvc" {
		runKV(kvFlags{
			clients: *kvClients, requests: *kvReqs, getPct: *kvGetPct,
			valueBytes: *kvValue, shards: *kvShards, servers: *kvServers,
			think: *kvThink, arrival: *kvArrival, loads: *kvLoads,
		}, cord.Protocol(strings.ToUpper(*protoF)), sys, *compare, *seed,
			*traceOut, *metricsOut, *traceSample)
		return
	}

	var w cord.Workload
	switch strings.ToLower(*name) {
	case "micro":
		w = cord.Microbench(*store, *sync, *fanout, *rounds)
	case "ata":
		w = cord.Alltoall(sys.Hosts, *rounds)
	default:
		var err error
		w, err = cord.App(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	if *from != "" {
		runTrace(*from, cord.Protocol(strings.ToUpper(*protoF)), sys)
		return
	}
	if *dump != "" || *char {
		tr, err := cord.RecordTrace(w, sys)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *char {
			s := cord.CharacterizeTrace(tr)
			fmt.Printf("workload           %s\n", w.Name)
			fmt.Printf("cores              %d\n", s.Cores)
			fmt.Printf("ops                %d\n", s.Ops)
			fmt.Printf("relaxed stores     %d (mean %.1f B)\n", s.RelaxedStores, s.RelaxedBytes)
			fmt.Printf("releases           %d (mean %.0f B/release)\n", s.Releases, s.ReleaseGranBytes)
			fmt.Printf("acquires           %d\n", s.Acquires)
			fmt.Printf("mean comm. fanout  %.1f hosts\n", s.Fanout)
		}
		if *dump != "" {
			f, err := os.Create(*dump)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if err := cord.WriteTrace(f, tr); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			f.Close()
			fmt.Printf("trace written to %s\n", *dump)
		}
		return
	}

	// Simulator-runtime telemetry: collected whenever something will consume
	// it (-runtime-report, the live server's /runtime + cord_sim_* families,
	// or per-window progress units). Every run, single-host included, has
	// windows to observe; -compare runs one system per protocol, so the
	// per-run report is only offered for single-protocol runs.
	if *runtimeOut != "" && *compare {
		fmt.Fprintln(os.Stderr, "cordsim: -runtime-report is per run; drop -compare")
		os.Exit(1)
	}
	var col *rt.Collector
	if !*compare && (*runtimeOut != "" || *httpAddr != "" || *progressF) {
		col = rt.NewCollector(sys.Hosts)
	}

	// Live introspection: -progress prints the shared tracker to stderr,
	// -http additionally serves it (plus the metrics registry and pprof).
	var prog *live.Progress
	if *progressF || *httpAddr != "" {
		prog = live.NewProgress()
	}
	if prog != nil && col != nil {
		// Step the ETA in executed events, advanced once per window barrier.
		prog.SetUnitLabel("events")
		var last uint64
		col.SetOnWindow(func(total uint64) {
			prog.AddUnits(int64(total - last))
			last = total
		})
	}
	var rec *obs.Recorder
	if *httpAddr != "" {
		// The server scrapes the metrics registry mid-run; event capture
		// stays off unless -trace-out asked for it (single-run only).
		if *traceOut != "" && !*compare {
			rec = obs.New()
			rec.SetSample(*traceSample)
		} else {
			rec = obs.NewMetricsOnly()
		}
		rec.ShareMetrics()
		srv, err := live.NewServer(*httpAddr, rec, prog, map[string]string{
			"workload": w.Name,
			"fabric":   strings.ToUpper(*fabric),
			"model":    model(*tso),
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		srv.SetRuntime(col)
		srv.Start()
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "live introspection on http://%s\n", srv.Addr())
	}
	if *progressF {
		stop := prog.StartPrinter(os.Stderr, time.Second)
		defer stop()
	}
	observed := func(p cord.Protocol, opt cord.TraceOptions) (*cord.Result, *cord.Observation, error) {
		if opt.Recorder == nil && opt.Sample == 0 && !opt.MetricsOnly && opt.Runtime == nil {
			r, err := cord.Simulate(w, p, sys)
			return r, nil, err
		}
		return cord.SimulateObserved(w, p, sys, opt)
	}

	if *compare {
		// Run the protocols one by one (rather than cord.Compare) so the
		// progress tracker advances between them.
		protocols := make([]cord.Protocol, 0, len(cord.Protocols()))
		for _, p := range cord.Protocols() {
			if p == cord.MP && w.MPIncompatible {
				continue
			}
			protocols = append(protocols, p)
		}
		if prog != nil {
			prog.Start(w.Name+" compare", len(protocols))
		}
		rs := make(map[cord.Protocol]*cord.Result, len(protocols))
		for _, p := range protocols {
			r, _, err := observed(p, cord.TraceOptions{Recorder: rec})
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			rs[p] = r
			if prog != nil {
				prog.Step(1)
			}
		}
		base := rs[cord.CORD]
		fmt.Printf("%-6s %14s %14s %10s %10s\n", "proto", "time(ns)", "traffic(B)", "t/CORD", "B/CORD")
		for _, p := range protocols {
			r := rs[p]
			fmt.Printf("%-6s %14.0f %14d %10.3f %10.3f\n", p, r.ExecNanos(), r.InterHostBytes(),
				r.ExecNanos()/base.ExecNanos(),
				float64(r.InterHostBytes())/float64(base.InterHostBytes()))
		}
		return
	}

	if prog != nil {
		prog.Start(w.Name, 1)
	}
	var (
		r   *cord.Result
		o   *cord.Observation
		err error
	)
	if rec != nil {
		r, o, err = observed(cord.Protocol(strings.ToUpper(*protoF)), cord.TraceOptions{Recorder: rec, Runtime: col})
	} else if *traceOut != "" || *metricsOut != "" || col != nil {
		opt := cord.TraceOptions{Sample: *traceSample, MetricsOnly: *traceOut == "", Runtime: col}
		r, o, err = observed(cord.Protocol(strings.ToUpper(*protoF)), opt)
	} else {
		r, err = cord.Simulate(w, cord.Protocol(strings.ToUpper(*protoF)), sys)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if prog != nil {
		prog.Step(1)
	}
	if o != nil {
		writeObservation(o, *traceOut, *metricsOut, col)
	}
	if *runtimeOut != "" {
		writeFile(*runtimeOut, func(w io.Writer) error { return col.Snapshot().WriteJSON(w) })
		fmt.Printf("runtime report written to %s (analyze with: cordtrace scaling %s)\n",
			*runtimeOut, *runtimeOut)
	}
	fmt.Printf("workload          %s\n", w.Name)
	fmt.Printf("protocol          %s (%s, %s)\n", strings.ToUpper(*protoF), *fabric, model(*tso))
	fmt.Printf("execution time    %.0f ns\n", r.ExecNanos())
	fmt.Printf("inter-PU traffic  %d B\n", r.InterHostBytes())
	fmt.Printf("ack traffic       %d B\n", r.AckBytes())
	fmt.Printf("notifications     %d B\n", r.NotificationBytes())
	fmt.Printf("ack stall         %.1f%% of execution\n", 100*r.AckStallFraction())
	if mean, p50, p99 := r.ReleaseLatencyNanos(); mean > 0 {
		fmt.Printf("release latency   mean %.0f ns, p50 %.0f ns, p99 %.0f ns\n", mean, p50, p99)
	}
	if p := r.PeakProcTableBytes(); p > 0 {
		fmt.Printf("peak proc tables  %d B\n", p)
		fmt.Printf("peak dir tables   %d B\n", r.PeakDirTableBytes())
	}
}

func model(tso bool) string {
	if tso {
		return "TSO"
	}
	return "RC"
}

// writeFile creates path and writes it with fn, exiting on error.
func writeFile(path string, fn func(w io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := fn(f); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	f.Close()
}

// writeObservation exports the recorded events (Chrome trace + JSONL) and the
// metrics registry to the requested files. With a runtime collector attached,
// the Chrome trace additionally carries the simulator-timeline track group —
// the .json then embeds wall-clock data and is not byte-stable across runs,
// while the .jsonl event stream stays deterministic.
func writeObservation(o *cord.Observation, traceOut, metricsOut string, col *rt.Collector) {
	if traceOut != "" {
		if col != nil {
			rep := col.Snapshot()
			writeFile(traceOut, func(w io.Writer) error { return o.WriteChromeTraceRuntime(w, rep) })
		} else {
			writeFile(traceOut, o.WriteChromeTrace)
		}
		jsonl := strings.TrimSuffix(traceOut, ".json") + ".jsonl"
		writeFile(jsonl, o.WriteJSONL)
		fmt.Printf("trace written to %s (load in https://ui.perfetto.dev) and %s\n", traceOut, jsonl)
	}
	if metricsOut != "" {
		writeFile(metricsOut, o.WriteMetricsJSON)
		fmt.Printf("metrics written to %s\n", metricsOut)
	}
}

// runGraph lowers an algorithm-derived graph workload and simulates it.
func runGraph(kind string, verts, degree, iters int, seed int64,
	p cord.Protocol, sys cord.System, characterize bool) {
	iterations := iters
	if iterations > 20 {
		iterations = 5 // the -rounds default is tuned for the microbench
	}
	cfg := cord.GraphConfig{
		Vertices: verts, AvgDegree: degree, PowerLaw: true,
		Partitions: sys.Hosts, Iterations: iterations,
		ComputePerEdge: 2, Seed: seed,
	}
	var (
		tr  *cord.Trace
		err error
	)
	if kind == "graph-sssp" {
		tr, err = cfg.SSSPTrace(sys)
	} else {
		tr, err = cfg.PageRankTrace(sys)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if characterize {
		s := cord.CharacterizeTrace(tr)
		fmt.Printf("workload           %s (%d vertices, deg %d, %d iters)\n", kind, verts, degree, iterations)
		fmt.Printf("relaxed stores     %d (mean %.1f B)\n", s.RelaxedStores, s.RelaxedBytes)
		fmt.Printf("releases           %d (mean %.0f B/release)\n", s.Releases, s.ReleaseGranBytes)
		fmt.Printf("mean comm. fanout  %.1f hosts\n", s.Fanout)
		return
	}
	r, err := cord.SimulateTrace(tr, p, sys)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("workload          %s (%d vertices, deg %d, %d iters)\n", kind, verts, degree, iterations)
	fmt.Printf("protocol          %s\n", p)
	fmt.Printf("execution time    %.0f ns\n", r.ExecNanos())
	fmt.Printf("inter-PU traffic  %d B\n", r.InterHostBytes())
	if mean, p50, p99 := r.ReleaseLatencyNanos(); mean > 0 {
		fmt.Printf("release latency   mean %.0f ns, p50 %.0f ns, p99 %.0f ns\n", mean, p50, p99)
	}
}

// runTrace replays a recorded trace file.
func runTrace(path string, p cord.Protocol, sys cord.System) {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer f.Close()
	tr, err := cord.ReadTrace(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	r, err := cord.SimulateTrace(tr, p, sys)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("trace             %s (%d cores)\n", path, len(tr.Cores))
	fmt.Printf("protocol          %s\n", p)
	fmt.Printf("execution time    %.0f ns\n", r.ExecNanos())
	fmt.Printf("inter-PU traffic  %d B\n", r.InterHostBytes())
}

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"cord/internal/exp"
	"cord/internal/proto"
	"cord/internal/sim"
	"cord/internal/workload"
)

// kernelResult is one row of BENCH_kernel.json: how fast the event kernel
// retires simulation events under a given protocol scheme and fabric, and
// how much it allocates doing so. Each row is measured Runs times; the
// timing and allocation figures are the medians, with the wall-time spread
// as min and max. Allocations are amortized over the whole run (system
// construction included), so steady-state numbers are lower.
type kernelResult struct {
	Scheme        string  `json:"scheme"`
	Fabric        string  `json:"fabric"`
	Workload      string  `json:"workload"`
	Events        uint64  `json:"events"`
	Runs          int     `json:"runs"`
	WallMs        float64 `json:"wall_ms"`
	WallMsMin     float64 `json:"wall_ms_min"`
	WallMsMax     float64 `json:"wall_ms_max"`
	NsPerEvent    float64 `json:"ns_per_event"`
	EventsPerSec  float64 `json:"events_per_sec"`
	AllocsPerEvnt float64 `json:"allocs_per_event"`
}

// kernelReport is the machine-readable benchmark artifact committed as
// BENCH_kernel.json so the kernel's performance trajectory is recorded in
// the repo rather than in CI logs.
type kernelReport struct {
	GeneratedBy string         `json:"generated_by"`
	GoVersion   string         `json:"go_version"`
	GOARCH      string         `json:"goarch"`
	NumCPU      int            `json:"num_cpu"`
	GOMAXPROCS  int            `json:"gomaxprocs"`
	Scheduler   kernelResult   `json:"scheduler"`
	Protocols   []kernelResult `json:"protocols"`
}

// kernelRuns is how many times each row is measured.
const kernelRuns = 5

// sample is one measured run: events retired, wall time, heap allocations.
type sample struct {
	events  uint64
	wall    time.Duration
	mallocs uint64
}

// measure runs f kernelRuns times and folds the samples into a row: median
// wall time and allocations per event, and the wall-time range. The event
// count is the same on every run, since each run simulates from scratch.
func measure(f func() (sample, error)) (kernelResult, error) {
	walls := make([]float64, 0, kernelRuns)
	allocs := make([]float64, 0, kernelRuns)
	var events uint64
	for i := 0; i < kernelRuns; i++ {
		s, err := f()
		if err != nil {
			return kernelResult{}, err
		}
		events = s.events
		walls = append(walls, float64(s.wall.Nanoseconds())/1e6)
		allocs = append(allocs, float64(s.mallocs)/float64(s.events))
	}
	sort.Float64s(walls)
	sort.Float64s(allocs)
	wall := walls[len(walls)/2]
	return kernelResult{
		Events:        events,
		Runs:          kernelRuns,
		WallMs:        wall,
		WallMsMin:     walls[0],
		WallMsMax:     walls[len(walls)-1],
		NsPerEvent:    wall * 1e6 / float64(events),
		EventsPerSec:  float64(events) / (wall / 1e3),
		AllocsPerEvnt: allocs[len(allocs)/2],
	}, nil
}

// benchScheduler measures the bare engine with no protocol on top: a
// steady-state churn of 1024 in-flight events with pseudo-random delays,
// the same shape as BenchmarkEngineChurn. The engine is warmed first so the
// measurement sees the zero-allocation steady state.
func benchScheduler(events int) sample {
	eng := sim.NewEngine(1)
	lcg := uint64(0x9E3779B97F4A7C15)
	next := func() sim.Time {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		return 1 + sim.Time(lcg>>58)
	}
	fired := 0
	var tick func()
	tick = func() {
		fired++
		if fired < events {
			eng.Schedule(next(), tick)
		}
	}
	for i := 0; i < schedulerInFlight; i++ {
		eng.Schedule(next(), tick)
	}
	// Warm slab, wheel, and free list before timing.
	if err := eng.RunUntil(eng.Now() + 4096); err != nil {
		panic(err)
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	before := eng.Executed()
	start := time.Now()
	if err := eng.Run(); err != nil {
		panic(err)
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	return sample{events: eng.Executed() - before, wall: wall, mallocs: m1.Mallocs - m0.Mallocs}
}

// schedulerInFlight is the scheduler row's steady-state event population.
const schedulerInFlight = 1024

// benchProtocol runs one full protocol simulation and reports kernel
// throughput: every scheduled event — core issue, NoC hop, directory
// processing — retires through the same two-level queue.
func benchProtocol(p workload.Pattern, s exp.Scheme, ic exp.Interconnect) (sample, error) {
	nc := exp.NetConfig(ic)
	cores, progs, err := p.Programs(nc)
	if err != nil {
		return sample{}, err
	}
	sys := proto.NewSystem(42, nc, proto.RC)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	if _, err := proto.Exec(sys, exp.Builder(s), cores, progs); err != nil {
		return sample{}, err
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	return sample{events: sys.Executed(), wall: wall, mallocs: m1.Mallocs - m0.Mallocs}, nil
}

// kernelBench writes BENCH_kernel.json to path.
func kernelBench(path string) error {
	sched, err := measure(func() (sample, error) { return benchScheduler(2_000_000), nil })
	if err != nil {
		return err
	}
	sched.Scheme, sched.Fabric = "none", "none"
	sched.Workload = fmt.Sprintf("churn/%d-inflight", schedulerInFlight)
	rep := kernelReport{
		GeneratedBy: "cordbench -kernel",
		GoVersion:   runtime.Version(),
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Scheduler:   sched,
	}
	p := workload.Micro(256, 64, 3, 20000)
	for _, ic := range exp.Interconnects() {
		for _, s := range exp.Schemes() {
			r, err := measure(func() (sample, error) { return benchProtocol(p, s, ic) })
			if err != nil {
				return err
			}
			r.Scheme, r.Fabric, r.Workload = string(s), string(ic), p.Name
			rep.Protocols = append(rep.Protocols, r)
			fmt.Fprintf(os.Stderr, "kernel: %-4s %-3s %8d events  %6.1f ns/event (wall %.1f-%.1f ms over %d runs)  %.3f allocs/event\n",
				r.Scheme, r.Fabric, r.Events, r.NsPerEvent, r.WallMsMin, r.WallMsMax, r.Runs, r.AllocsPerEvnt)
		}
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(out)
		return err
	}
	return os.WriteFile(path, out, 0o644)
}

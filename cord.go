// Package cord is a from-scratch reproduction of "CORD: Low-Latency,
// Bandwidth-Efficient and Scalable Release Consistency via Directory
// Ordering" (ISCA 2025): the CORD cache-coherence protocol, the baselines it
// is evaluated against (source ordering, message passing, write-back MESI,
// monolithic sequence numbers), a deterministic multi-PU interconnect
// simulator to run them on, an exhaustive model checker for their
// consistency guarantees, and the workloads and harnesses that regenerate
// every figure and table of the paper's evaluation.
//
// # Quick start
//
//	w := cord.Microbench(64, 4096, 1, 100) // 64B stores, 4KB sync, fanout 1
//	r, err := cord.Simulate(w, cord.CORD, cord.CXLSystem())
//	if err != nil { ... }
//	fmt.Println(r.ExecNanos(), r.InterHostBytes())
//
// Simulate runs a workload under a protocol on a simulated multi-host
// system (Table 1 of the paper: 8 CPU hosts x 8 cores, 2x4 mesh per host,
// one switch between hosts). Use Compare to run all protocols at once, the
// Verify functions to model-check consistency, and the exp subcommand
// binaries (cmd/cordbench, cmd/cordcheck, cmd/cordsim) for the full paper
// evaluation.
package cord

import (
	"fmt"

	"cord/internal/noc"
	"cord/internal/proto"
	"cord/internal/proto/cord"
	"cord/internal/proto/mp"
	"cord/internal/proto/so"
	"cord/internal/proto/wb"
	"cord/internal/stats"
	"cord/internal/workload"
)

// Protocol names a coherence protocol.
type Protocol string

// The compared protocols.
const (
	// CORD orders write-through stores at the directory (the paper's
	// contribution).
	CORD Protocol = "CORD"
	// SO is source ordering: per-store acknowledgments, releases stall.
	SO Protocol = "SO"
	// MP is PCIe-style message passing: posted writes, point-to-point
	// destination ordering only.
	MP Protocol = "MP"
	// WB is the source-ordered write-back MESI baseline.
	WB Protocol = "WB"
)

// Protocols lists the four end-to-end schemes.
func Protocols() []Protocol { return []Protocol{MP, CORD, SO, WB} }

// Consistency selects the enforced memory model.
type Consistency int

const (
	// ReleaseConsistency is the paper's primary target (§2.2).
	ReleaseConsistency Consistency = iota
	// TotalStoreOrder is §6's x86-style study.
	TotalStoreOrder
)

// System describes the simulated multi-PU platform.
type System struct {
	// Hosts and CoresPerHost shape the platform (Table 1: 8 x 8).
	Hosts        int
	CoresPerHost int
	// InterHostNs is the one-way inter-host latency (150 CXL, 50 UPI).
	InterHostNs float64
	// LinkGBs is the per-port bandwidth in GB/s.
	LinkGBs float64
	// JitterCycles models adaptive-routing delivery skew.
	JitterCycles int
	// RingTopology replaces the single inter-host switch with a
	// bidirectional ring (per-link latency InterHostNs).
	RingTopology bool
	// MeshCols overrides the intra-host mesh width (columns); 0 keeps the
	// Table 1 default (4, i.e. a 2x4 mesh for 8 cores). It is clamped to
	// CoresPerHost.
	MeshCols int
	// Model is the enforced consistency model.
	Model Consistency
	// Seed drives all randomness; equal seeds give identical results.
	Seed int64
	// SimWorkers bounds how many host shards the conservative-parallel
	// simulation engine advances concurrently (<= 1 means serial). Results
	// are byte-identical for every value; it only trades wall-clock time.
	SimWorkers int
}

// CXLSystem returns the paper's CXL configuration (Table 1).
func CXLSystem() System {
	return System{Hosts: 8, CoresPerHost: 8, InterHostNs: 150, LinkGBs: 64,
		JitterCycles: 4, Seed: 42}
}

// UPISystem returns the paper's UPI configuration.
func UPISystem() System {
	s := CXLSystem()
	s.InterHostNs = 50
	return s
}

func (s System) netConfig() (noc.Config, error) {
	nc := noc.CXLConfig()
	if s.Hosts > 0 {
		nc.Hosts = s.Hosts
	}
	if s.CoresPerHost > 0 {
		nc.TilesPerHost = s.CoresPerHost
		if nc.TilesPerHost < nc.MeshCols {
			nc.MeshCols = nc.TilesPerHost
		}
	}
	if s.MeshCols > 0 {
		nc.MeshCols = s.MeshCols
		if nc.MeshCols > nc.TilesPerHost {
			nc.MeshCols = nc.TilesPerHost
		}
	}
	if s.InterHostNs > 0 {
		nc.InterHostNs = s.InterHostNs
	}
	if s.LinkGBs > 0 {
		nc.LinkBytesPerCycle = s.LinkGBs / 2 // GB/s -> bytes per 0.5ns cycle
	}
	nc.JitterCycles = s.JitterCycles
	if s.RingTopology {
		nc.Topology = noc.Ring
	}
	return nc, nc.Validate()
}

func (s System) mode() proto.Mode {
	if s.Model == TotalStoreOrder {
		return proto.TSO
	}
	return proto.RC
}

// newSystem builds the simulated machine every entry point runs on: the
// partitioned system for nc, advanced by SimWorkers shard workers.
func (s System) newSystem(nc noc.Config) *proto.System {
	sys := proto.NewSystem(s.Seed, nc, s.mode())
	sys.Workers = s.SimWorkers
	return sys
}

// builder resolves a Protocol name.
func builder(p Protocol) (proto.Builder, error) {
	switch p {
	case CORD:
		return cord.New(), nil
	case SO:
		return so.New(), nil
	case MP:
		return mp.New(), nil
	case WB:
		return wb.New(), nil
	default:
		return nil, fmt.Errorf("cord: unknown protocol %q", p)
	}
}

// Workload is a communication pattern to simulate. Construct one with
// Microbench, Alltoall, App/Apps, or fill the struct directly (it is
// workload.Pattern; see that type's fields for the full parameter set).
type Workload = workload.Pattern

// Microbench is the §5.3 sensitivity micro-benchmark: a single thread
// repeatedly writing `syncBytes` of `storeBytes`-granularity write-through
// stores to `fanout` other hosts, then releasing and waiting for completion,
// for `rounds` rounds.
func Microbench(storeBytes, syncBytes, fanout, rounds int) Workload {
	return workload.Micro(storeBytes, syncBytes, fanout, rounds)
}

// Alltoall is the §5.4 ATA storage stressor: every host broadcasts 8 bytes
// to every other host each round.
func Alltoall(hosts, rounds int) Workload {
	return workload.ATA(hosts, rounds)
}

// App returns one of the paper's ten evaluated applications by name
// (PR, SSSP, PAD, TQH, HSTI, TRNS, MOCFE, CMC-2D, BigFFT, CR).
func App(name string) (Workload, error) { return workload.App(name) }

// Apps returns the full Table 2 application suite.
func Apps() []Workload { return workload.Apps() }

// Result exposes the measurements of one simulation.
type Result struct {
	run *stats.Run
}

// ExecNanos is the end-to-end execution time in simulated nanoseconds.
func (r *Result) ExecNanos() float64 { return r.run.ExecNanos() }

// InterHostBytes is the total inter-PU traffic, the paper's traffic metric.
func (r *Result) InterHostBytes() uint64 { return r.run.Traffic.TotalInter() }

// AckBytes is the inter-PU traffic spent on acknowledgments.
func (r *Result) AckBytes() uint64 { return r.run.Traffic.Inter(stats.ClassAck) }

// AckStallFraction is the share of execution time the average core spent
// waiting for write-through acknowledgments (Fig. 2's metric).
func (r *Result) AckStallFraction() float64 { return r.run.StallFraction(stats.StallAckWait) }

// NotificationBytes is CORD's inter-directory notification traffic.
func (r *Result) NotificationBytes() uint64 {
	return r.run.Traffic.Inter(stats.ClassReqNotify) + r.run.Traffic.Inter(stats.ClassNotify)
}

// PeakProcTableBytes and PeakDirTableBytes are the worst per-instance
// protocol-table footprints (Fig. 11's metrics). Zero for protocols without
// ordering tables.
func (r *Result) PeakProcTableBytes() int { return r.run.PeakPerInstance("proc/") }

// PeakDirTableBytes reports the largest directory-side table footprint.
func (r *Result) PeakDirTableBytes() int { return r.run.PeakPerInstance("dir/") }

// ReleaseLatencyNanos returns the mean, p50 (median) and p99 of the
// issue-to-acknowledgment latency of Release stores across all cores, in
// nanoseconds. Zero for protocols that do not acknowledge Releases (MP).
func (r *Result) ReleaseLatencyNanos() (mean, p50, p99 float64) {
	var d stats.Dist
	for i := range r.run.Procs {
		d.Merge(&r.run.Procs[i].ReleaseLatency)
	}
	const cyclesPerNano = 2
	return d.Mean() / cyclesPerNano,
		float64(d.Quantile(0.5)) / cyclesPerNano,
		float64(d.Quantile(0.99)) / cyclesPerNano
}

// Raw returns the underlying run statistics for advanced inspection.
func (r *Result) Raw() *stats.Run { return r.run }

// Simulate runs a workload under a protocol on a system and returns the
// measurements. Runs are deterministic for a fixed System.Seed.
func Simulate(w Workload, p Protocol, s System) (*Result, error) {
	nc, err := s.netConfig()
	if err != nil {
		return nil, err
	}
	b, err := builder(p)
	if err != nil {
		return nil, err
	}
	cores, srcs, err := w.Sources(nc)
	if err != nil {
		return nil, err
	}
	sys := s.newSystem(nc)
	run, err := proto.ExecSources(sys, b, cores, srcs)
	if err != nil {
		return nil, err
	}
	return &Result{run: run}, nil
}

// Compare runs the workload under every protocol and returns results keyed
// by protocol. Protocols a workload cannot run under (message passing for
// ISA2-shaped synchronization, §3.2) are absent from the map.
func Compare(w Workload, s System) (map[Protocol]*Result, error) {
	out := make(map[Protocol]*Result)
	for _, p := range Protocols() {
		if p == MP && w.MPIncompatible {
			continue
		}
		r, err := Simulate(w, p, s)
		if err != nil {
			return nil, fmt.Errorf("cord: %s: %w", p, err)
		}
		out[p] = r
	}
	return out, nil
}

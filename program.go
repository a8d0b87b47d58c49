package cord

import (
	"cmp"
	"fmt"
	"slices"

	"cord/internal/memsys"
	"cord/internal/noc"
	"cord/internal/proto"
	"cord/internal/sim"
)

// The program-level API lets users script custom per-core scenarios instead
// of using the built-in workload generators: compose addresses, build op
// sequences, and simulate them under any protocol.

// Addr is a physical address in the simulated system. Compose one with
// ComposeAddr; the home directory is (host, slice).
type Addr = memsys.Addr

// Op is a single program operation; Program is one core's op stream.
type (
	Op      = proto.Op
	Program = proto.Program
)

// ComposeAddr builds an address homed at the given host's directory slice.
func ComposeAddr(host, slice int, offset uint64) Addr {
	return memsys.Compose(host, slice, offset)
}

// ComputeOp models local computation for the given cycle count.
func ComputeOp(cycles uint64) Op { return proto.Compute(sim.Time(cycles)) }

// Program-building helpers (see the proto package for full semantics).
var (
	// StoreRelaxed is a Relaxed write-through store of size bytes.
	StoreRelaxed = proto.StoreRelaxed
	// StoreRelease is a Release write-through store publishing value v.
	StoreRelease = proto.StoreRelease
	// FetchAddOp is a far atomic fetch-add with the given ordering.
	FetchAddOp = proto.FetchAdd
	// AcquireLoad spins until the addressed flag reaches at least want.
	AcquireLoad = proto.AcquireLoad
)

// Ordering re-exports for FetchAddOp.
const (
	OrdRelaxed = proto.Relaxed
	OrdRelease = proto.Release
)

// ReleaseBarrier orders all prior write-through stores (§4.4).
func ReleaseBarrier() Op { return proto.Barrier(proto.Release) }

// FullBarrier is a sequentially-consistent barrier (drains everything).
func FullBarrier() Op { return proto.Barrier(proto.SeqCst) }

// CoreRef addresses a core by host and core index.
type CoreRef struct {
	Host int
	Core int
}

// SimulateProgram runs explicit per-core programs under a protocol.
func SimulateProgram(progs map[CoreRef]Program, p Protocol, s System) (*Result, error) {
	if len(progs) == 0 {
		return nil, fmt.Errorf("cord: no programs")
	}
	nc, err := s.netConfig()
	if err != nil {
		return nil, err
	}
	b, err := builder(p)
	if err != nil {
		return nil, err
	}
	refs := make([]CoreRef, 0, len(progs))
	for r := range progs {
		if r.Host < 0 || r.Host >= nc.Hosts || r.Core < 0 || r.Core >= nc.TilesPerHost {
			return nil, fmt.Errorf("cord: core %+v outside the %dx%d system", r, nc.Hosts, nc.TilesPerHost)
		}
		refs = append(refs, r)
	}
	slices.SortFunc(refs, func(a, b CoreRef) int {
		if c := cmp.Compare(a.Host, b.Host); c != 0 {
			return c
		}
		return cmp.Compare(a.Core, b.Core)
	})
	cores := make([]noc.NodeID, len(refs))
	ps := make([]Program, len(refs))
	for i, r := range refs {
		cores[i] = noc.CoreID(r.Host, r.Core)
		ps[i] = progs[r]
	}
	sys := s.newSystem(nc)
	run, err := proto.Exec(sys, b, cores, ps)
	if err != nil {
		return nil, err
	}
	return &Result{run: run}, nil
}

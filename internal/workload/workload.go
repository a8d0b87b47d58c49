// Package workload generates the memory-operation traces the evaluation
// runs: a parameterized producer micro-benchmark (§5.3's sensitivity
// studies), synthetic equivalents of the ten end-to-end applications of
// Table 2 (Pannotia, Chai and DOE mini-apps), and the ATA storage-stress
// workload of §5.4.
//
// The paper evaluates the DOE apps from traces; here every application is a
// deterministic trace generator parameterized by the characteristics
// Table 2 and §5.2 report: Relaxed store granularity, synchronization
// (Release) granularity, communication fan-out, compute-to-communication
// ratio, and write locality. DESIGN.md documents this substitution.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"cord/internal/memsys"
	"cord/internal/noc"
	"cord/internal/proto"
	"cord/internal/sim"
)

// Pattern describes a bulk-synchronous communication workload: one rank per
// host (running on core 0) that, each round, writes data to Fanout partner
// hosts, publishes a Release flag per partner, optionally computes, and
// acquires the flags its in-neighbors published.
type Pattern struct {
	Name string
	// Hosts is the number of participating PUs (<= system hosts).
	Hosts int
	// RanksPerHost runs several communicating ranks per host (default 1);
	// rank (h, k) exchanges with slot k of the partner hosts, multiplying
	// pressure on the statically partitioned directory tables.
	RanksPerHost int
	// Rounds is the number of communication rounds.
	Rounds int
	// RelaxedBytes is the Relaxed store granularity (Table 2: word or line).
	RelaxedBytes int
	// SyncBytes / SyncBytesMax bound the data communicated per Release
	// (Table 2's Release granularity). When SyncBytesMax > SyncBytes the
	// per-round size is sampled log-uniformly from the range.
	SyncBytes    int
	SyncBytesMax int
	// Fanout is the number of partner hosts each rank writes per round.
	Fanout int
	// ComputeCycles is the local computation per round.
	ComputeCycles sim.Time
	// Rewrite is the number of times each location is stored per round
	// (temporal write locality; write-back caches coalesce rewrites).
	Rewrite int
	// RewriteInterleaved spreads the rewrites across sweeps of the whole
	// buffer (as graph relaxation revisits vertices) instead of storing each
	// location back-to-back; interleaved rewrites defeat the write-through
	// protocols' write-combining buffer while write-back caches still
	// coalesce them.
	RewriteInterleaved bool
	// TightEvery, when positive, makes every TightEvery-th round acquire the
	// *current* round's flags (a tightly coupled phase boundary) instead of
	// the usual one-round-slack split-phase acquire.
	TightEvery int
	// LineUtil is the average bytes written per touched cache line (spatial
	// locality: 64 = dense streaming, RelaxedBytes = fully scattered).
	LineUtil int
	// ProducerOnly omits consumers and per-round acquires; each round ends
	// with a Release barrier (wait for release acknowledgment / flush), as
	// in the §5.3 micro-benchmark's single issuing thread.
	ProducerOnly bool
	// MPIncompatible marks workloads whose synchronization pattern is
	// broken by message passing's point-to-point ordering (TQH, §3.2).
	MPIncompatible bool
	// UseAtomics publishes flags with Release far fetch-adds instead of
	// Release stores (TQH's task-queue pattern: Table 2's "stores or
	// atomics"). The producer then blocks on each atomic's value response,
	// which caps how much any ordering protocol can help.
	UseAtomics bool
	// Seed drives per-round size sampling.
	Seed int64
}

// Validate reports parameter errors.
func (p Pattern) Validate() error {
	switch {
	case p.Hosts < 2:
		return fmt.Errorf("workload %s: need >= 2 hosts, have %d", p.Name, p.Hosts)
	case p.Rounds < 1:
		return fmt.Errorf("workload %s: need >= 1 round", p.Name)
	case p.RelaxedBytes < 1 || p.RelaxedBytes > 4096:
		return fmt.Errorf("workload %s: RelaxedBytes = %d out of range", p.Name, p.RelaxedBytes)
	case p.SyncBytes < 1:
		return fmt.Errorf("workload %s: SyncBytes must be >= 1", p.Name)
	case p.SyncBytesMax != 0 && p.SyncBytesMax < p.SyncBytes:
		return fmt.Errorf("workload %s: SyncBytesMax < SyncBytes", p.Name)
	case p.Fanout < 1 || p.Fanout >= p.Hosts:
		return fmt.Errorf("workload %s: Fanout = %d must be in [1, hosts-1]", p.Name, p.Fanout)
	case p.Rewrite < 1:
		return fmt.Errorf("workload %s: Rewrite must be >= 1", p.Name)
	case p.LineUtil < p.RelaxedBytes && p.RelaxedBytes <= memsys.LineBytes:
		return fmt.Errorf("workload %s: LineUtil %d below store granularity", p.Name, p.LineUtil)
	case p.RanksPerHost < 0 || p.RanksPerHost > 8:
		return fmt.Errorf("workload %s: RanksPerHost = %d out of range", p.Name, p.RanksPerHost)
	case p.ComputeCycles > maxComputeCycles:
		return fmt.Errorf("workload %s: ComputeCycles = %d out of range (a negative value converted to sim.Time wraps here)",
			p.Name, p.ComputeCycles)
	}
	return nil
}

// maxComputeCycles bounds per-round compute. sim.Time is unsigned, so a
// negative int converted into the field lands far above this — the bound is
// what lets Validate reject such wrap-arounds instead of simulating for 2^63
// cycles.
const maxComputeCycles = sim.Time(1) << 62

// ranksPerHost resolves the default.
func (p Pattern) ranksPerHost() int {
	if p.RanksPerHost < 1 {
		return 1
	}
	return p.RanksPerHost
}

// dataSlice and flagSlice spread each (source rank, partner) pair's buffers
// across the destination host's directory slices so that one partner maps to
// one directory (matching the paper's fan-out model).
func dataSlice(src, tiles int) int { return src % tiles }

// dataRegion returns the base address of rank src's write buffer at host dst.
func dataRegion(src, dst, tiles int) memsys.Addr {
	return memsys.Compose(dst, dataSlice(src, tiles), uint64(src)<<22)
}

// flagAddr returns rank src's flag at host dst (same slice as its data, so a
// fan-out of one partner involves exactly one directory).
func flagAddr(src, dst, tiles int) memsys.Addr {
	return memsys.Compose(dst, dataSlice(src, tiles), uint64(src)<<22|1<<21)
}

// syncSize samples the round's communicated bytes.
func (p Pattern) syncSize(rng *rand.Rand) int {
	if p.SyncBytesMax <= p.SyncBytes {
		return p.SyncBytes
	}
	lo, hi := math.Log(float64(p.SyncBytes)), math.Log(float64(p.SyncBytesMax))
	return int(math.Exp(lo + rng.Float64()*(hi-lo)))
}

// dataStores is the number of distinct locations one partner's size bytes
// occupy at RelaxedBytes granularity (at least one).
func (p Pattern) dataStores(size int) int {
	return max(1, size/p.RelaxedBytes)
}

// writeData appends the Relaxed stores that communicate size bytes into the
// region, honoring the spatial (LineUtil) and temporal (Rewrite) locality
// parameters: dataStores(size) * Rewrite ops. Values carry the round number
// so consumers (and tests) can verify ordering.
func (p Pattern) writeData(prog proto.Program, region memsys.Addr, size int, value uint64) proto.Program {
	uniq := p.dataStores(size)
	perLine := p.LineUtil / p.RelaxedBytes
	if perLine < 1 || p.RelaxedBytes >= memsys.LineBytes {
		perLine = 1
	}
	addrOf := func(i int) memsys.Addr {
		if p.RelaxedBytes >= memsys.LineBytes {
			return region + memsys.Addr(i*p.RelaxedBytes)
		}
		return region + memsys.Addr(i/perLine*memsys.LineBytes+i%perLine*p.RelaxedBytes)
	}
	op := proto.Op{Kind: proto.OpStoreWT, Ord: proto.Relaxed, Size: p.RelaxedBytes, Value: value}
	if p.RewriteInterleaved {
		for w := 0; w < p.Rewrite; w++ {
			for i := 0; i < uniq; i++ {
				op.Addr = addrOf(i)
				prog = append(prog, op)
			}
		}
	} else {
		for i := 0; i < uniq; i++ {
			op.Addr = addrOf(i)
			for w := 0; w < p.Rewrite; w++ {
				prog = append(prog, op)
			}
		}
	}
	return prog
}

// plan is one Programs or Sources call's checked shape: the pattern, the
// fabric's tile count, the rank count, and the per-round sync sizes. The
// sizes are the same for every rank, so they are drawn once, from
// rand.NewSource(Seed + 7919). A plan is read-only once built, which is
// what lets the streaming sources of different hosts share it.
type plan struct {
	p     Pattern
	tiles int
	rph   int
	ranks int
	sizes []int
}

// plan runs the up-front checks both drains share and draws the sizes.
func (p Pattern) plan(nc noc.Config) (*plan, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.Hosts > nc.Hosts {
		return nil, fmt.Errorf("workload %s: needs %d hosts, system has %d", p.Name, p.Hosts, nc.Hosts)
	}
	rph := p.ranksPerHost()
	if rph > nc.TilesPerHost {
		return nil, fmt.Errorf("workload %s: %d ranks per host exceed %d tiles", p.Name, rph, nc.TilesPerHost)
	}
	ranks := p.Hosts * rph
	if p.ProducerOnly {
		ranks = 1
	}
	rng := rand.New(rand.NewSource(p.Seed + 7919))
	sizes := make([]int, p.Rounds)
	for i := range sizes {
		sizes[i] = p.syncSize(rng)
	}
	return &plan{p: p, tiles: nc.TilesPerHost, rph: rph, ranks: ranks, sizes: sizes}, nil
}

// want is the flag value a round's consume phase waits for, or 0 for none.
// Consumption is double-buffered (MPI split-phase style): a round waits for
// the *previous* round's flags from its in-neighbors, so one round of slack
// hides release-propagation latency, except on every TightEvery-th round (a
// tightly coupled phase boundary). The final round's flags are collected by
// the tail.
func (pl *plan) want(round int) uint64 {
	if pl.p.TightEvery > 0 && (round+1)%pl.p.TightEvery == 0 {
		return uint64(round + 1)
	}
	return uint64(round)
}

// roundOps is the closed-form length of one round as appendRound builds it.
func (pl *plan) roundOps(round int) int {
	p := &pl.p
	n := p.Fanout * p.dataStores(pl.sizes[round]) * p.Rewrite
	if p.ComputeCycles > 0 {
		n++
	}
	switch {
	case p.ProducerOnly:
		n += 2 // one Release publish, one Release barrier
	case pl.want(round) > 0:
		n += 2 * p.Fanout // publishes and acquires
	default:
		n += p.Fanout
	}
	return n
}

// tailOps is the closed-form length of appendTail's ops.
func (pl *plan) tailOps() int {
	if pl.p.ProducerOnly {
		return 1
	}
	return pl.p.Fanout + 1
}

// rankOps is the length of every rank's program: all ranks draw the same
// sizes, so they are the same length.
func (pl *plan) rankOps() int {
	n := pl.tailOps()
	for round := range pl.sizes {
		n += pl.roundOps(round)
	}
	return n
}

// rank is rank r's round builder, the one generator both drains run. Rank
// (h, k) runs on core k of host h and communicates with slot k of hosts
// (h+1)%Hosts .. (h+Fanout)%Hosts.
type rank struct {
	*plan
	r, host, slot int
}

func (pl *plan) rank(r int) rank {
	return rank{plan: pl, r: r, host: r / pl.rph, slot: r % pl.rph}
}

func (g rank) core() noc.NodeID { return noc.CoreID(g.host, g.slot) }

// appendRound appends round's ops: compute, the data writes to every
// partner, the flag publishes, then the consume phase.
func (g rank) appendRound(prog proto.Program, round int) proto.Program {
	p := &g.p
	v := uint64(round + 1)
	if p.ComputeCycles > 0 {
		prog = append(prog, proto.Compute(p.ComputeCycles))
	}
	// Write phase: data to every partner first (Fig. 5's pattern), so the
	// Release epoch spans Fanout directories.
	for k := 1; k <= p.Fanout; k++ {
		prog = p.writeData(prog, dataRegion(g.r, (g.host+k)%p.Hosts, g.tiles), g.sizes[round], v)
	}
	// Publish phase. The producer-only micro-benchmark follows Fig. 5's
	// pattern exactly: m Relaxed stores to the first n-1 directories, then a
	// single Release to the last, and waits for its releases to complete
	// before the next round (release acknowledgment / posted-write flush).
	// The two-sided applications publish one flag per partner.
	if p.ProducerOnly {
		return append(prog, g.publish((g.host+p.Fanout)%p.Hosts, v), proto.Barrier(proto.Release))
	}
	for k := 1; k <= p.Fanout; k++ {
		prog = append(prog, g.publish((g.host+k)%p.Hosts, v))
	}
	if want := g.want(round); want > 0 {
		prog = g.appendAcquires(prog, want)
	}
	return prog
}

// appendTail appends the ops after the last round: the final round's
// acquires, then the SeqCst barrier.
func (g rank) appendTail(prog proto.Program) proto.Program {
	if !g.p.ProducerOnly {
		prog = g.appendAcquires(prog, uint64(g.p.Rounds))
	}
	return append(prog, proto.Barrier(proto.SeqCst))
}

// publish returns the round-v flag release to host dst.
func (g rank) publish(dst int, v uint64) proto.Op {
	if g.p.UseAtomics {
		// Task-queue style: bump the flag with a Release fetch-add (the
		// flag reaches v after v rounds).
		return proto.FetchAdd(flagAddr(g.r, dst, g.tiles), 1, proto.Release)
	}
	return proto.StoreRelease(flagAddr(g.r, dst, g.tiles), 8, v)
}

// appendAcquires waits for every in-neighbor's flag to reach want.
func (g rank) appendAcquires(prog proto.Program, want uint64) proto.Program {
	for k := 1; k <= g.p.Fanout; k++ {
		src := (g.host-k+g.p.Hosts)%g.p.Hosts*g.rph + g.slot
		prog = append(prog, proto.AcquireLoad(flagAddr(src, g.host, g.tiles), want))
	}
	return prog
}

// Programs builds the per-core programs for the given interconnect shape,
// each in one exactly sized allocation. Use it where a materialised trace is
// needed; Sources streams the same ops.
func (p Pattern) Programs(nc noc.Config) ([]noc.NodeID, []proto.Program, error) {
	pl, err := p.plan(nc)
	if err != nil {
		return nil, nil, err
	}
	n := pl.rankOps()
	cores := make([]noc.NodeID, pl.ranks)
	progs := make([]proto.Program, pl.ranks)
	for r := range progs {
		g := pl.rank(r)
		cores[r] = g.core()
		prog := make(proto.Program, 0, n)
		for round := range pl.sizes {
			prog = g.appendRound(prog, round)
		}
		prog = g.appendTail(prog)
		if len(prog) != n {
			panic(fmt.Sprintf("workload %s: rank %d built %d ops, sized for %d", p.Name, r, len(prog), n))
		}
		progs[r] = prog
	}
	return cores, progs, nil
}

// Sources is Programs as pull-based op streams for proto.ExecSources: each
// rank's source builds one round at a time into a reusable buffer through
// the same round builder, so it yields exactly Programs' ops in O(one
// round) memory. It runs Programs' checks and returns the same errors.
func (p Pattern) Sources(nc noc.Config) ([]noc.NodeID, []proto.OpSource, error) {
	pl, err := p.plan(nc)
	if err != nil {
		return nil, nil, err
	}
	n := pl.tailOps()
	for round := range pl.sizes {
		n = max(n, pl.roundOps(round))
	}
	cores := make([]noc.NodeID, pl.ranks)
	srcs := make([]proto.OpSource, pl.ranks)
	for r := range srcs {
		g := pl.rank(r)
		cores[r] = g.core()
		srcs[r] = &patternSource{rank: g, buf: make(proto.Program, 0, n)}
	}
	return cores, srcs, nil
}

// patternSource streams one rank: buf holds the current round (or the
// tail), pc the next op in it, and next the round to build once buf is
// drained (Rounds stands for the tail, Rounds+1 for the end).
type patternSource struct {
	rank
	buf  proto.Program
	pc   int
	next int
}

// Next implements proto.OpSource.
func (s *patternSource) Next(sim.Time) (proto.Op, bool) {
	if s.pc == len(s.buf) && !s.refill() {
		return proto.Op{}, false
	}
	op := s.buf[s.pc]
	s.pc++
	return op, true
}

// refill builds the next round into buf, reporting false once the tail is
// spent. Each refill is validated, as proto.Exec validates a whole program:
// an invalid op is a generator bug.
func (s *patternSource) refill() bool {
	switch {
	case s.next < s.p.Rounds:
		s.buf = s.appendRound(s.buf[:0], s.next)
	case s.next == s.p.Rounds:
		s.buf = s.appendTail(s.buf[:0])
	default:
		return false
	}
	if err := s.buf.Validate(); err != nil {
		panic(fmt.Sprintf("workload %s: rank %d round %d: %v", s.p.Name, s.r, s.next, err))
	}
	s.next++
	s.pc = 0
	return true
}

// Micro returns the §5.3 sensitivity micro-benchmark: a single producer
// thread repeatedly writing write-through stores to other hosts' memory.
func Micro(storeGran, syncGran, fanout, rounds int) Pattern {
	return Pattern{
		Name:         fmt.Sprintf("micro/s%d/y%d/f%d", storeGran, syncGran, fanout),
		Hosts:        fanout + 1,
		Rounds:       rounds,
		RelaxedBytes: storeGran,
		SyncBytes:    syncGran,
		Fanout:       fanout,
		Rewrite:      1,
		LineUtil:     memsys.LineBytes,
		ProducerOnly: true,
		Seed:         1,
	}
}

// ATA returns the §5.4 storage-stress workload: every rank continuously
// alltoall-broadcasts 8 bytes, maximizing fan-out and minimizing
// synchronization granularity.
func ATA(hosts, rounds int) Pattern {
	return Pattern{
		Name:         "ATA",
		Hosts:        hosts,
		Rounds:       rounds,
		RelaxedBytes: 8,
		SyncBytes:    8,
		Fanout:       hosts - 1,
		Rewrite:      1,
		LineUtil:     memsys.LineBytes,
		Seed:         2,
	}
}

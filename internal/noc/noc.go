// Package noc models the multi-PU interconnect of the simulated system: a
// mesh inside each CPU host and a single switch (or ring) between hosts. The
// paper-default geometry is Table 1's: 8 CPU hosts, each with 8 tiles in a
// 2x4 mesh (CXLConfig/UPIConfig); every dimension — host count, tiles per
// host, mesh width — is configurable, and the scaling studies run the same
// code at 64-256 hosts. The network provides latency (per-hop mesh latency,
// inter-host link latency), bandwidth (serialization on the inter-host
// ports), optional delivery jitter (to exercise out-of-order arrival handling
// in protocols), and per-class traffic accounting.
//
// A Network serves the host-sharded cluster scheduler (sim.Cluster), one
// engine per host: intra-host deliveries schedule directly on the source
// host's engine, while cross-host sends are buffered in a source-shard-owned
// outbox and injected into the destination shard at the next window barrier
// (Flush), walking the outboxes in host order so same-cycle arrivals at one
// engine are ordered by (source host, send order) — the sim.Exchanger
// contract. A single-host network is the one-shard case of the same code.
package noc

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"cord/internal/obs"
	"cord/internal/sim"
	"cord/internal/stats"
)

// NodeKind distinguishes processor cores from directory/LLC slices.
type NodeKind int

const (
	// Core is a processor core node.
	Core NodeKind = iota
	// Dir is a directory + LLC-slice node.
	Dir
)

func (k NodeKind) String() string {
	if k == Core {
		return "core"
	}
	return "dir"
}

// NodeID identifies an endpoint: a core or a directory slice on a tile of a
// host's mesh. A core and the directory slice with the same Host/Tile are
// co-located (same mesh tile), as in the paper's architecture (Fig. 6 right).
type NodeID struct {
	Host int
	Tile int
	Kind NodeKind
}

func (n NodeID) String() string {
	return fmt.Sprintf("%s[h%d.t%d]", n.Kind, n.Host, n.Tile)
}

// Obs converts the ID to the observability layer's node representation.
func (n NodeID) Obs() obs.Node {
	return obs.Node{Host: n.Host, Tile: n.Tile, Dir: n.Kind == Dir}
}

// CoreID and DirID are convenience constructors.
func CoreID(host, tile int) NodeID { return NodeID{Host: host, Tile: tile, Kind: Core} }

// DirID returns the NodeID of directory slice tile on host.
func DirID(host, tile int) NodeID { return NodeID{Host: host, Tile: tile, Kind: Dir} }

// InterTopo selects the inter-host topology.
type InterTopo int

const (
	// Switch is the paper's single-switch star (Table 1): every host pair
	// is one switch traversal apart.
	Switch InterTopo = iota
	// Ring connects hosts in a bidirectional ring; the inter-host latency
	// is per link, so distant hosts pay multiple traversals. Models the
	// "increasingly complex interconnect topologies" §3.2 anticipates.
	Ring
)

func (t InterTopo) String() string {
	if t == Ring {
		return "ring"
	}
	return "switch"
}

// Config describes the interconnect geometry and timing.
type Config struct {
	Hosts        int      // number of CPU hosts
	TilesPerHost int      // cores (= directory slices) per host
	MeshCols     int      // mesh width (2x4 mesh: Cols=4, Rows=2)
	HopCycles    sim.Time // per-mesh-hop latency (Table 1: 10 cycles)
	// Topology is the inter-host topology (default: single switch).
	Topology InterTopo
	// InterHostNs is the one-way inter-host ("inter-PU directory access")
	// latency in nanoseconds: 150 for CXL, 50 for UPI (Table 1).
	InterHostNs float64
	// LinkBytesPerCycle is the bandwidth of each directional inter-host port
	// in bytes per cycle at the 2 GHz core clock (Table 1: 64 GB/s =
	// 64 B/ns = 32 B per 0.5 ns cycle).
	LinkBytesPerCycle float64
	// JitterCycles adds a uniformly random [0, JitterCycles] delivery skew to
	// model adaptive routing / multipath reordering. 0 disables jitter.
	JitterCycles int
	// PortTile is the mesh tile that hosts the inter-host port (CXL/UPI
	// port in Fig. 6); traffic leaving/entering the host crosses it.
	PortTile int
}

// CXLConfig returns the paper's CXL system configuration (Table 1).
func CXLConfig() Config {
	return Config{
		Hosts: 8, TilesPerHost: 8, MeshCols: 4,
		HopCycles:         10,
		InterHostNs:       150,
		LinkBytesPerCycle: 32,
		JitterCycles:      4,
	}
}

// UPIConfig returns the paper's UPI configuration: same system, 50 ns links.
func UPIConfig() Config {
	c := CXLConfig()
	c.InterHostNs = 50
	return c
}

// Validation bounds on the timing parameters. They are physically absurd
// (half a millisecond per mesh hop, one second across the interconnect) and
// exist to keep latency arithmetic far from uint64 overflow: FuzzConfigValidate
// found that an unbounded HopCycles — e.g. a negative value forced through
// the unsigned sim.Time — wraps delay computation and corrupts the event
// wheel.
const (
	maxHopCycles   = 1 << 20
	maxInterHostNs = 1e9
)

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Hosts < 1:
		return fmt.Errorf("noc: Hosts = %d, need >= 1", c.Hosts)
	case c.TilesPerHost < 1:
		return fmt.Errorf("noc: TilesPerHost = %d, need >= 1", c.TilesPerHost)
	case c.MeshCols < 1:
		return fmt.Errorf("noc: MeshCols = %d, need >= 1", c.MeshCols)
	case c.TilesPerHost%c.MeshCols != 0:
		return fmt.Errorf("noc: TilesPerHost %d not divisible by MeshCols %d", c.TilesPerHost, c.MeshCols)
	case c.HopCycles > maxHopCycles:
		return fmt.Errorf("noc: HopCycles %d exceeds the %d-cycle bound", c.HopCycles, int64(maxHopCycles))
	case math.IsNaN(c.InterHostNs) || c.InterHostNs < 0 || c.InterHostNs > maxInterHostNs:
		return fmt.Errorf("noc: InterHostNs %v outside [0, %g]", c.InterHostNs, float64(maxInterHostNs))
	case math.IsNaN(c.LinkBytesPerCycle) || math.IsInf(c.LinkBytesPerCycle, 0) || c.LinkBytesPerCycle <= 0:
		return fmt.Errorf("noc: LinkBytesPerCycle must be positive and finite")
	case c.JitterCycles < 0:
		return fmt.Errorf("noc: JitterCycles %d must be non-negative", c.JitterCycles)
	case c.PortTile < 0 || c.PortTile >= c.TilesPerHost:
		return fmt.Errorf("noc: PortTile %d out of range", c.PortTile)
	}
	return nil
}

// Lookahead returns the conservative parallel-simulation window W in cycles:
// a lower bound on the delivery latency of any cross-host message. Every
// cross-host send pays at least one inter-host link traversal
// (sim.FromNanos(InterHostNs); ring distances are >= 1 link) on top of
// non-negative mesh, serialization, queueing, and jitter terms, so an event
// executing at time t cannot make another host's shard busy before t+W.
// Clamped to >= 1 so a degenerate zero-latency configuration still advances.
func (c Config) Lookahead() sim.Time {
	w := sim.FromNanos(c.InterHostNs)
	if w < 1 {
		w = 1
	}
	return w
}

// meshHops returns the Manhattan distance between two tiles of a host mesh.
func (c Config) meshHops(a, b int) int {
	ax, ay := a%c.MeshCols, a/c.MeshCols
	bx, by := b%c.MeshCols, b/c.MeshCols
	dx, dy := ax-bx, ay-by
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// link models a directional inter-host port with finite bandwidth: messages
// serialize one after another.
type link struct {
	nextFree sim.Time
}

// Handler receives delivered messages at a node.
type Handler func(src NodeID, payload any)

// packID encodes a NodeID into the one-word source tag a sim.DeliverFunc
// carries: kind in bit 0, tile in bits 1..32, host above. unpackID inverts
// it. Packing keeps the hot delivery path free of closures — the source node
// rides in the event slot itself.
func packID(id NodeID) uint64 {
	return uint64(id.Host)<<33 | uint64(id.Tile)<<1 | uint64(id.Kind)
}

func unpackID(w uint64) NodeID {
	return NodeID{Host: int(w >> 33), Tile: int(w >> 1 & 0xFFFFFFFF), Kind: NodeKind(w & 1)}
}

// xmsg is one buffered cross-shard message. Its source host is the outbox it
// sits in and its send order is its position there; Flush derives the
// injection order from both (see Flush).
type xmsg struct {
	at      sim.Time
	src     uint64   // packed source NodeID
	dur     sim.Time // full source-to-destination latency, for the KDeliver event
	payload any
	dstIdx  int32
	bytes   int32
	class   uint8 // stats.MsgClass
	traced  bool
}

// Network connects cores and directories. Handlers are registered per node;
// Send computes delay (mesh hops, serialization, inter-host latency, jitter),
// accounts traffic, and schedules the destination handler.
type Network struct {
	cfg Config
	// Per-host engines, traffic accumulators, optional recorders (nil
	// disables tracing), and cross-shard outboxes. Everything indexed by
	// host is touched only from that host's shard during a window, so the
	// hot paths need no locks; Flush runs single-threaded at the window
	// barrier.
	engines  []*sim.Engine
	traffics []*stats.Traffic
	recs     []*obs.Recorder
	outbox   [][]xmsg // [src shard] -> buffered cross-host sends, in send order

	// egress[h] is host h's directional switch port; its serialization
	// state is owned by the sending host's shard.
	egress []link
	// handlers / deliver are dense per-node tables indexed by
	// (host, tile, kind): the registered handler and its monomorphic
	// delivery wrapper (allocated once at Register, reused per message).
	handlers []Handler
	deliver  []sim.DeliverFunc
	// linkWhole is the integral bytes-per-cycle link bandwidth, or 0 when
	// the configured bandwidth is fractional and serialization falls back
	// to float ceil.
	linkWhole uint64

	// fobs is the optional simulator-runtime flush census hook (nil
	// disables). It is invoked once per Flush, single-threaded at the
	// window barrier, so it adds nothing to the per-message send path.
	fobs FlushObserver
}

// FlushObserver receives the cross-shard outbox census at each Exchanger
// barrier: how many buffered messages the flush injected, how many remain
// buffered past the horizon (outbox depth), and the wire bytes the injected
// messages carried. Implemented by obs/runtime.Collector; this is simulator
// telemetry about the merge itself and never feeds back into simulation
// state.
type FlushObserver interface {
	RecordFlush(injected, retained, mergedBytes int)
}

// NewPartitioned creates a network over the host-sharded cluster scheduler:
// engines[h] and traffics[h] belong to host h's shard. The returned network
// implements sim.Exchanger; pass it to sim.Cluster.Run so buffered
// cross-host messages are injected at each window barrier. It panics on
// invalid configuration, which is a programming error in experiment setup,
// not a runtime condition.
func NewPartitioned(engines []*sim.Engine, cfg Config, traffics []*stats.Traffic) *Network {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if len(engines) != cfg.Hosts || len(traffics) != cfg.Hosts {
		panic(fmt.Sprintf("noc: %d engines / %d traffics for %d hosts",
			len(engines), len(traffics), cfg.Hosts))
	}
	n := &Network{
		cfg:      cfg,
		engines:  engines,
		traffics: traffics,
		outbox:   make([][]xmsg, cfg.Hosts),
		egress:   make([]link, cfg.Hosts),
		handlers: make([]Handler, cfg.Hosts*cfg.TilesPerHost*2),
		deliver:  make([]sim.DeliverFunc, cfg.Hosts*cfg.TilesPerHost*2),
	}
	if bpc := cfg.LinkBytesPerCycle; bpc >= 1 && bpc == math.Trunc(bpc) {
		n.linkWhole = uint64(bpc)
	}
	return n
}

// nodeIndex maps a NodeID to its slot in the dense per-node tables, or -1
// when the ID lies outside the configured geometry.
func (n *Network) nodeIndex(id NodeID) int {
	if uint(id.Host) >= uint(n.cfg.Hosts) || uint(id.Tile) >= uint(n.cfg.TilesPerHost) ||
		uint(id.Kind) > uint(Dir) {
		return -1
	}
	return (id.Host*n.cfg.TilesPerHost+id.Tile)<<1 | int(id.Kind)
}

// Config returns the network configuration.
func (n *Network) Config() Config { return n.cfg }

// SetObservers installs per-shard recorders (nil disables): messages record
// into their source host's recorder, deliveries into the destination host's.
// Metrics are updated for every message; hop events obey the recorders'
// sampling.
func (n *Network) SetObservers(recs []*obs.Recorder) {
	if recs != nil && len(recs) != n.cfg.Hosts {
		panic(fmt.Sprintf("noc: %d recorders for %d hosts", len(recs), n.cfg.Hosts))
	}
	n.recs = recs
}

// SetFlushObserver installs the runtime flush-census hook (nil detaches).
func (n *Network) SetFlushObserver(o FlushObserver) { n.fobs = o }

// recOf returns host h's recorder (nil when untraced).
func (n *Network) recOf(h int) *obs.Recorder {
	if n.recs == nil {
		return nil
	}
	return n.recs[h]
}

// nodeAt inverts nodeIndex.
func (n *Network) nodeAt(idx int32) NodeID {
	i := int(idx)
	return NodeID{Host: (i >> 1) / n.cfg.TilesPerHost, Tile: (i >> 1) % n.cfg.TilesPerHost,
		Kind: NodeKind(i & 1)}
}

// Register installs the delivery handler for node id.
func (n *Network) Register(id NodeID, h Handler) {
	idx := n.nodeIndex(id)
	if idx < 0 {
		panic(fmt.Sprintf("noc: %v outside the configured geometry", id))
	}
	if n.handlers[idx] != nil {
		panic(fmt.Sprintf("noc: duplicate handler for %v", id))
	}
	n.handlers[idx] = h
	// The one closure per node: unpacks the source word and forwards to the
	// registered handler. Every untraced delivery reuses it.
	n.deliver[idx] = func(src uint64, payload any) { h(unpackID(src), payload) }
}

// interHostOneWay is the inter-host traversal latency in cycles: one link
// for the switch star, the minimum ring distance times the link latency for
// the ring.
func (n *Network) interHostOneWay(src, dst int) sim.Time {
	link := sim.FromNanos(n.cfg.InterHostNs)
	if n.cfg.Topology != Ring {
		return link
	}
	d := src - dst
	if d < 0 {
		d = -d
	}
	if rev := n.cfg.Hosts - d; rev < d {
		d = rev
	}
	return sim.Time(d) * link
}

// Latency returns the zero-load latency between two nodes in cycles,
// excluding serialization and jitter. Exported for analytical checks in
// tests and for the Fig. 5 hop-count validation.
func (n *Network) Latency(from, to NodeID) sim.Time {
	if from.Host == to.Host {
		return sim.Time(n.cfg.meshHops(from.Tile, to.Tile)) * n.cfg.HopCycles
	}
	hops := n.cfg.meshHops(from.Tile, n.cfg.PortTile) + n.cfg.meshHops(n.cfg.PortTile, to.Tile)
	return sim.Time(hops)*n.cfg.HopCycles + n.interHostOneWay(from.Host, to.Host)
}

// serialization returns the cycles a message of the given size occupies an
// inter-host port: ceil(bytes / link bandwidth), computed in exact integer
// arithmetic when the bandwidth is a whole number of bytes per cycle (every
// Table 1 configuration), with a float ceil fallback for fractional
// bandwidths.
func (n *Network) serialization(bytes int) sim.Time {
	if n.linkWhole != 0 {
		return sim.Time((uint64(bytes) + n.linkWhole - 1) / n.linkWhole)
	}
	return sim.Time(math.Ceil(float64(bytes) / n.cfg.LinkBytesPerCycle))
}

// Send transmits a message of the given class and size from src to dst and
// invokes dst's handler with payload on arrival. Inter-host messages consume
// bandwidth on the source host's egress port (serializing one after another).
//
// Send must execute on the source host's shard — true for every protocol
// engine, whose components only send from their own node. Intra-host
// messages schedule directly on that shard's engine and recorder. Cross-host
// messages are appended to the source shard's outbox with their computed
// arrival time and injected at the next window barrier (Flush). Delivery
// jitter draws from the source shard's engine PRNG, so each host's jitter
// stream depends only on that shard's (deterministic) send order — never on
// how shards interleave across workers.
//
// The untraced path (no observability recorder, or this message not sampled)
// performs no allocation: delivery is a monomorphic event carrying the
// node's pre-built sim.DeliverFunc, the packed source, and the payload.
func (n *Network) Send(src, dst NodeID, class stats.MsgClass, bytes int, payload any) {
	if bytes <= 0 {
		panic(fmt.Sprintf("noc: message size %d must be positive", bytes))
	}
	idx := n.nodeIndex(dst)
	if idx < 0 || n.handlers[idx] == nil {
		panic(fmt.Sprintf("noc: no handler registered for %v", dst))
	}
	sh := src.Host
	eng := n.engines[sh]
	interHost := sh != dst.Host
	n.traffics[sh].Add(class, bytes, interHost)
	rec := n.recOf(sh)
	rec.CountMsg(class, bytes, interHost)

	delay, queueing := n.delay(eng, src, dst, bytes, interHost)
	if n.cfg.JitterCycles > 0 {
		delay += sim.Time(eng.Rand().Intn(n.cfg.JitterCycles + 1))
	}
	rec.ObserveLatency(class, delay)
	traced := rec.Take()
	if traced {
		// Trace the whole hop under one sampling decision: the Send now, the
		// Link entry when the message queued for an inter-host port, and the
		// Deliver from the arrival event (tracedDelivery).
		now := eng.Now()
		osrc, odst := src.Obs(), dst.Obs()
		rec.Record(obs.Event{At: now, Kind: obs.KSend, Src: osrc, Dst: odst,
			Class: class, Bytes: bytes, Dur: delay, Wait: queueing})
		if interHost && queueing > 0 {
			rec.Record(obs.Event{At: now + queueing, Kind: obs.KLink,
				Src: osrc, Dst: odst, Class: class, Bytes: bytes, Wait: queueing})
		}
	}
	if interHost {
		n.outbox[sh] = append(n.outbox[sh], xmsg{
			at: eng.Now() + delay, src: packID(src), dur: delay, payload: payload,
			dstIdx: int32(idx), bytes: int32(bytes), class: uint8(class), traced: traced,
		})
		return
	}
	if traced {
		eng.Schedule(delay, n.tracedDelivery(src, int32(idx), class, bytes, delay, payload))
		return
	}
	eng.ScheduleDeliver(delay, n.deliver[idx], packID(src), payload)
}

// delay computes a message's latency excluding jitter — mesh hops plus, for
// inter-host messages, the link traversal, serialization, and egress-port
// queueing — charging the egress port. The egress state is owned by the
// sending host (= the executing shard), so this is safe under parallel
// windows.
func (n *Network) delay(eng *sim.Engine, src, dst NodeID, bytes int, interHost bool) (delay, queueing sim.Time) {
	delay = n.Latency(src, dst)
	if !interHost {
		return delay, 0
	}
	ser := n.serialization(bytes)
	now := eng.Now()
	eg := &n.egress[src.Host]
	start := now
	if eg.nextFree > start {
		start = eg.nextFree
	}
	eg.nextFree = start + ser
	queueing = start - now
	return delay + queueing + ser, queueing
}

// tracedDelivery builds a sampled message's arrival event: it records the
// KDeliver into the destination host's recorder (the source host's recorder
// already holds the matching KSend) and then calls the handler. This closure
// is the one place a Send still allocates.
func (n *Network) tracedDelivery(src NodeID, dstIdx int32, class stats.MsgClass, bytes int, dur sim.Time, payload any) func() {
	dst := n.nodeAt(dstIdx)
	eng, rec, h := n.engines[dst.Host], n.recOf(dst.Host), n.handlers[dstIdx]
	osrc, odst := src.Obs(), dst.Obs()
	return func() {
		rec.Record(obs.Event{At: eng.Now(), Kind: obs.KDeliver,
			Src: osrc, Dst: odst, Class: class, Bytes: bytes, Dur: dur})
		h(src, payload)
	}
}

// Flush implements sim.Exchanger: it injects every buffered cross-host
// message with arrival time <= horizon into its destination shard's engine
// and retains the rest for a future window. It walks the outboxes in host
// order and each outbox in send order, so same-cycle arrivals at one engine
// are injected — and, since sim.Engine fires in (time, insertion) order,
// delivered — in (source host, send order). No sort is needed: the engine
// orders different arrival times itself. Retained messages are compacted in
// place at the front of their own outbox, ahead of that host's later sends;
// moving them to a shared list injected first would break the order. Flush
// runs single-threaded at the window barrier, so it may touch every shard's
// engine and outbox.
func (n *Network) Flush(horizon sim.Time) (remaining int, earliest sim.Time) {
	injected, bytes := 0, 0
	for sh, ob := range n.outbox {
		keep := 0
		for i := range ob {
			m := &ob[i]
			if m.at <= horizon {
				n.inject(m)
				injected++
				bytes += int(m.bytes)
				continue
			}
			if remaining == 0 || m.at < earliest {
				earliest = m.at
			}
			remaining++
			if keep != i {
				ob[keep] = *m
			}
			keep++
		}
		clear(ob[keep:]) // release payload references
		n.outbox[sh] = ob[:keep]
	}
	if n.fobs != nil {
		n.fobs.RecordFlush(injected, remaining, bytes)
	}
	return remaining, earliest
}

// inject schedules one flushed cross-host arrival on its destination shard.
// Untraced deliveries stay monomorphic and allocation-free.
func (n *Network) inject(m *xmsg) {
	eng := n.engines[n.nodeAt(m.dstIdx).Host]
	if !m.traced {
		eng.ScheduleDeliverAt(m.at, n.deliver[m.dstIdx], m.src, m.payload)
		return
	}
	eng.ScheduleAt(m.at, n.tracedDelivery(unpackID(m.src), m.dstIdx,
		stats.MsgClass(m.class), int(m.bytes), m.dur, m.payload))
}

// LocalDir returns the directory slice co-located with a core: the same tile.
func LocalDir(core NodeID) NodeID { return NodeID{Host: core.Host, Tile: core.Tile, Kind: Dir} }

// SortIDs orders node IDs deterministically (host, then tile, then kind).
// Protocols must use it before iterating map-keyed node sets that lead to
// Send calls: delivery jitter consumes PRNG state, so send order must be
// reproducible.
func SortIDs(ids []NodeID) {
	slices.SortFunc(ids, func(a, b NodeID) int {
		if c := cmp.Compare(a.Host, b.Host); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Tile, b.Tile); c != 0 {
			return c
		}
		return cmp.Compare(a.Kind, b.Kind)
	})
}

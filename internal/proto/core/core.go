// Package core expresses each protocol's processor- and directory-side
// behaviour as pure, timing-free transition rules over explicit state
// structs. The rules know nothing about the discrete-event engine, the NoC,
// clocks, stats, or tracing: a rule is a guard plus a state mutation that
// may emit messages from the shared vocabulary below.
//
// Two very different drivers consume the same rules:
//
//   - The simulator (internal/proto/{cord,so,mp,wb}) wraps each state struct
//     in an adapter that owns timing, NoC injection, stats and obs events,
//     and delegates every protocol *decision* here. Its wire payload is a
//     *Msg, so the messages the rules emit travel as they are.
//   - The model checker (internal/litmus) explores the rules exhaustively
//     over a world of per-core and per-directory states plus an in-flight
//     message multiset.
//
// Because both sides run this package, cordcheck verifies the transition
// logic cordsim measures, not a transcription of it (DESIGN.md §9).
//
// Conventions: processors and directories are identified by dense indices.
// The simulator maps noc.NodeID{Host, Tile} to host*TilesPerHost+tile
// (proto.System.Index), so ascending index order coincides with noc.SortIDs
// order and rules that emit fan-outs in ascending index order reproduce the
// simulator's deterministic send order without sorting.
package core

// MsgKind names every protocol message the rules can emit or consume.
type MsgKind uint8

const (
	// CORD (paper Alg. 1/2).
	MRelaxed    MsgKind = iota // posted relaxed store, counted at the directory
	MRelease                   // release (or empty-release barrier) with ordering metadata
	MReqNotify                 // ask a directory to notify the release's target directory
	MNotify                    // inter-directory notification
	MAck                       // directory -> processor release acknowledgment
	MAtomicResp                // directory -> processor atomic old value

	// SO baseline.
	MSOStore // write-through store, acked individually
	MSOAck   // per-store acknowledgment

	// MP baseline.
	MMPStore   // posted write bound for a per-source FIFO ordering point
	MMPFlush   // flushing read: answered once writes <= Seq committed
	MMPFlushOK // flush response

	// WB baseline.
	MWBGetM // ownership fetch
	MWBFill // ownership fill
	MWBData // dirty-line write-back (checker: one addr per line)
	MWBFlag // write-through flag/release store
	MWBAck  // write-back / flag acknowledgment

	// Acquire polling, shared by every protocol (simulator only).
	MLoadReq  // poll a flag's home directory until it reaches Val
	MLoadResp // poll response carrying the flag's value in Val
)

// Msg is the protocol message vocabulary shared by the simulator and the
// model checker. The simulator sends *Msg as its wire payload (a directory
// reply rewrites the request in place); the checker stores Msg values
// directly in its in-flight multiset. Unused fields stay zero for any given
// kind. The one-byte fields sit together to keep the struct at 104 bytes.
type Msg struct {
	Kind    MsgKind
	HasPrev bool // CORD: a prior release to the same directory exists
	Barrier bool // CORD: empty release carrying no data
	Atomic  bool // read-modify-write; responses carry the old value in Val
	Release bool // SO/WB: the store is a release (ack resumes ordering)

	Src int // issuing processor (dense index)
	Dir int // destination (or origin, for responses) directory
	Dst int // MReqNotify/MNotify: directory to be notified

	Addr uint64
	Val  uint64
	Size int

	Ep      uint64 // CORD epoch
	Cnt     uint64 // CORD: expected relaxed-store count; MP: unused
	PrevEp  uint64 // CORD: the HasPrev release's epoch
	NotiCnt int    // CORD: notifications the release must wait for

	Seq uint64 // MP per-(source, ordering domain) sequence number

	Tag uint64 // driver-owned correlation (atomic tags, checker registers)
}

package sim

import (
	"context"
	"fmt"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Exchanger buffers cross-shard messages between conservative windows. The
// NoC implements it: sends whose destination lives on another shard are
// appended to a source-shard-owned outbox during a window, and Flush — always
// called single-threaded, at the window barrier — moves every buffered
// message with timestamp <= horizon into its destination engine in a
// deterministic order. Flush returns how many messages stay buffered (their
// timestamps exceed the horizon) and the earliest such timestamp, so the
// scheduler can anchor the next window on a message even when every engine
// has drained.
type Exchanger interface {
	Flush(horizon Time) (remaining int, earliest Time)
}

// WindowRecord is the per-window runtime telemetry handed to a WindowObserver
// at each barrier. All wall-clock fields are host nanoseconds, measured with
// the monotonic clock; they describe the simulator's own execution, never the
// simulated machine, and must therefore never feed back into simulation
// results (see DESIGN.md §12 on the telemetry quarantine).
//
// The per-shard slices are owned by the cluster and reused between windows:
// observers must copy out what they keep.
type WindowRecord struct {
	// Anchor and Deadline are the window's simulated-time bounds: the global
	// minimum pending timestamp and Anchor + W - 1.
	Anchor   Time
	Deadline Time
	// Workers is the worker count the window executed with (after clamping
	// to the active-shard count); Active the number of shards that had
	// events due.
	Workers int
	Active  int
	// WallNs is the barrier-to-barrier wall time of the execute phase.
	// FlushNs is the single-threaded Exchanger merge time charged to this
	// window (the pre-window flush plus the previous window's census probe).
	WallNs  int64
	FlushNs int64
	// StealAttempts counts work-queue claims by the window's workers;
	// StealHits the claims that yielded a shard. Both are zero on the serial
	// path (one worker runs the shards inline — nothing to steal).
	StealAttempts uint64
	StealHits     uint64
	// Per-shard measurements, indexed by shard. A shard inactive this window
	// has ShardStartNs[i] == -1. For active shards, ShardStartNs is the lag
	// from window start until the shard began executing (queueing behind
	// other shards on its worker), ShardBusyNs the time inside RunUntil, and
	// ShardEvents the events the shard retired. The shard's barrier wait is
	// WallNs - ShardStartNs - ShardBusyNs by construction, so the three
	// components tile the window wall exactly.
	ShardStartNs []int64
	ShardBusyNs  []int64
	ShardEvents  []uint64
}

// WindowObserver receives one WindowRecord per executed window, invoked
// single-threaded at the barrier after every shard has finished. Implemented
// by obs/runtime.Collector; the hook costs nothing when unset (no clock
// reads, no extra branches on the per-event path).
type WindowObserver interface {
	ObserveWindow(*WindowRecord)
}

// Cluster advances one Engine per shard (one shard per simulated host) in
// bounded conservative windows. The window width is the minimum cross-shard
// delivery latency W: an event executing at time t can only schedule work on
// another shard at t+W or later, so all shards may run [T, T+W-1]
// independently once every already-buffered cross-shard message due in that
// range has been injected. No null messages, no rollback.
//
// Determinism is independent of the worker count by construction: the
// partition (one shard per host) and the window sequence depend only on event
// timestamps, never on which worker ran a shard, and the Exchanger injects
// cross-shard messages at the single-threaded barrier so that same-time
// arrivals at one shard follow (source host, send order). Workers only
// decide how many shards execute their window concurrently; each shard's
// event order is fully determined either way, so a 1-worker run and an
// 8-worker run are byte-identical. Runtime telemetry (SetWindowObserver)
// reads only the wall clock and engine event counters — it observes the
// schedule without becoming an input to it.
type Cluster struct {
	engines []*Engine
	window  Time

	active []int   // scratch: shards with events due in the current window
	errs   []error // scratch: per-shard errors from a parallel window

	// Runtime telemetry (nil = disabled, zero overhead). rec's per-shard
	// slices are allocated once by SetWindowObserver and reused per window;
	// flushNs accumulates Exchanger merge time between barriers; the steal
	// counters are flushed by workers once per window (not per claim).
	wobs          WindowObserver
	rec           WindowRecord
	flushNs       int64
	stealAttempts atomic.Uint64
	stealHits     atomic.Uint64

	// Persistent window workers, alive only inside a parallel Run. The
	// calling goroutine is worker 0; wake[w-1] parks helper w between
	// windows. A window publishes its parameters (winStart, winDeadline,
	// the next cursor) before waking helpers, and busy counts the woken
	// helpers still claiming shards; exited counts live helpers.
	wake        []chan struct{}
	busy        sync.WaitGroup
	exited      sync.WaitGroup
	next        atomic.Int64
	winStart    time.Time
	winDeadline Time
}

// seedFor derives shard i's engine seed from the base seed (splitmix-style
// odd-constant stride, so shards get decorrelated PRNG streams). Shard 0
// keeps the base seed: a single-host cluster is bit-identical to a plain
// NewEngine(seed) simulation.
func seedFor(seed int64, shard int) int64 {
	return seed + int64(shard)*-0x61c8864680b583eb // golden-ratio increment
}

// NewCluster creates shards engines seeded from seed. window is the
// conservative lookahead W in cycles (clamped to >= 1).
func NewCluster(seed int64, shards int, window Time) *Cluster {
	if shards < 1 {
		panic("sim: cluster needs at least one shard")
	}
	if window < 1 {
		window = 1
	}
	c := &Cluster{
		engines: make([]*Engine, shards),
		window:  window,
		active:  make([]int, 0, shards),
		errs:    make([]error, shards),
	}
	for i := range c.engines {
		c.engines[i] = NewEngine(seedFor(seed, i))
	}
	return c
}

// Engines returns the per-shard engines (index = shard = host).
func (c *Cluster) Engines() []*Engine { return c.engines }

// Engine returns shard i's engine.
func (c *Cluster) Engine(i int) *Engine { return c.engines[i] }

// Shards returns the shard count.
func (c *Cluster) Shards() int { return len(c.engines) }

// Window returns the conservative window width in cycles.
func (c *Cluster) Window() Time { return c.window }

// Executed sums the events fired across all shards.
func (c *Cluster) Executed() uint64 {
	var n uint64
	for _, e := range c.engines {
		n += e.executed
	}
	return n
}

// SetMaxEvents installs a per-shard event budget (a runaway guard; 0
// disables).
func (c *Cluster) SetMaxEvents(n uint64) {
	for _, e := range c.engines {
		e.MaxEvents = n
	}
}

// SetWindowObserver installs the per-window runtime telemetry hook (nil
// detaches). The record's per-shard slices are allocated here, once, so the
// window loop itself stays allocation-free with telemetry enabled. Call
// before Run; the observer is invoked single-threaded at window barriers.
func (c *Cluster) SetWindowObserver(o WindowObserver) {
	c.wobs = o
	if o != nil && c.rec.ShardStartNs == nil {
		n := len(c.engines)
		c.rec.ShardStartNs = make([]int64, n)
		c.rec.ShardBusyNs = make([]int64, n)
		c.rec.ShardEvents = make([]uint64, n)
	}
}

// earliest returns the minimum next-event time across all shards.
func (c *Cluster) earliest() (Time, bool) {
	var min Time
	any := false
	for _, e := range c.engines {
		if at, ok := e.NextAt(); ok && (!any || at < min) {
			min, any = at, true
		}
	}
	return min, any
}

// flush runs one Exchanger barrier merge, charging its wall time to the next
// window's telemetry record when an observer is attached.
func (c *Cluster) flush(ex Exchanger, horizon Time) (int, Time) {
	if c.wobs == nil {
		return ex.Flush(horizon)
	}
	start := time.Now()
	remaining, earliest := ex.Flush(horizon)
	c.flushNs += time.Since(start).Nanoseconds()
	return remaining, earliest
}

// Run executes the cluster to completion: windows of width W anchored at the
// global minimum pending timestamp, a Flush barrier before each window, and
// up to workers shards running their window concurrently. It returns the
// first (lowest-shard) engine error, typically the MaxEvents guard. A nil
// Exchanger is valid for workloads with no cross-shard traffic. With more
// than one worker, Run starts min(workers, shards)-1 helper goroutines before
// its first window and stops them before it returns.
func (c *Cluster) Run(workers int, ex Exchanger) error {
	if workers < 1 {
		workers = 1
	}
	if workers > len(c.engines) {
		workers = len(c.engines)
	}
	if workers > 1 {
		c.startWorkers(workers - 1)
		defer c.stopWorkers()
	}
	buffered, bufEarliest := 0, Time(0)
	if ex != nil {
		// Initial census: a cross-shard send made before Run sits in an
		// outbox, and with every engine empty nothing else would anchor a
		// window on it. Horizon 0 injects only messages due at cycle 0,
		// which the first window would inject anyway.
		buffered, bufEarliest = c.flush(ex, 0)
	}
	for {
		t, ok := c.earliest()
		if buffered > 0 && (!ok || bufEarliest < t) {
			t, ok = bufEarliest, true
		}
		if !ok {
			return nil // every queue and outbox drained
		}
		deadline := t + c.window - 1
		if ex != nil {
			buffered, bufEarliest = c.flush(ex, deadline)
		}
		if err := c.runWindow(t, deadline, workers); err != nil {
			return err
		}
		if ex != nil {
			// Refresh the buffer census: the window may have produced new
			// cross-shard messages. The conservative bound puts them all
			// strictly after deadline, so this Flush injects nothing — it
			// only reports what remains, which the next iteration needs to
			// anchor a window even when every engine has drained.
			buffered, bufEarliest = c.flush(ex, deadline)
		}
	}
}

// runWindow executes every shard that has events due by deadline. Shards are
// independent within a window (the conservative W bound guarantees no
// cross-shard event at <= deadline can be created during it), so they run on
// up to workers goroutines; with one worker they run inline, in shard order,
// with zero scheduling overhead.
func (c *Cluster) runWindow(anchor, deadline Time, workers int) error {
	c.active = c.active[:0]
	for i, e := range c.engines {
		if at, ok := e.NextAt(); ok && at <= deadline {
			c.active = append(c.active, i)
		}
	}
	if len(c.active) == 0 {
		return nil
	}
	if workers > len(c.active) {
		workers = len(c.active)
	}
	tel := c.wobs != nil
	var start time.Time
	if tel {
		start = time.Now()
		for i := range c.rec.ShardStartNs {
			c.rec.ShardStartNs[i] = -1
			c.rec.ShardBusyNs[i] = 0
			c.rec.ShardEvents[i] = 0
		}
	}
	if workers <= 1 {
		for _, i := range c.active {
			if err := c.runShard(i, start, tel, deadline); err != nil {
				return fmt.Errorf("sim: shard %d: %w", i, err)
			}
		}
		c.observeWindow(tel, start, anchor, deadline, workers)
		return nil
	}
	if err := c.runShardsParallel(start, deadline, workers); err != nil {
		return err
	}
	c.observeWindow(tel, start, anchor, deadline, workers)
	return nil
}

// runShardsParallel executes the active shards on worker 0 (the calling
// goroutine) and workers-1 pool helpers, all claiming shards off a shared
// atomic cursor: a helper that wakes late finds fewer shards left, so its
// wake-up latency stays off the window's critical path.
func (c *Cluster) runShardsParallel(start time.Time, deadline Time, workers int) error {
	c.winStart, c.winDeadline = start, deadline
	c.next.Store(0)
	c.busy.Add(workers - 1)
	for _, wake := range c.wake[:workers-1] {
		wake <- struct{}{}
	}
	c.claimShards()
	c.busy.Wait()
	for _, i := range c.active {
		if err := c.errs[i]; err != nil {
			return fmt.Errorf("sim: shard %d: %w", i, err)
		}
	}
	return nil
}

// claimShards runs shards claimed off the window's cursor until none are
// left. Claim counts stay worker-local and are folded into the steal
// counters once per worker per window.
func (c *Cluster) claimShards() {
	tel := c.wobs != nil
	var attempts, hits uint64
	for {
		k := int(c.next.Add(1)) - 1
		attempts++
		if k >= len(c.active) {
			break
		}
		hits++
		i := c.active[k]
		c.errs[i] = c.runShard(i, c.winStart, tel, c.winDeadline)
	}
	if tel {
		c.stealAttempts.Add(attempts)
		c.stealHits.Add(hits)
	}
}

// startWorkers starts n pool helpers, numbered 1..n. Each labels itself
// once, cord_worker=<w>, so CPU profiles attribute samples per worker;
// worker 0 keeps its caller's labels.
func (c *Cluster) startWorkers(n int) {
	c.wake = make([]chan struct{}, n)
	for k := range c.wake {
		// One slot: the wake token is sent only after the helper's previous
		// window was waited for, so the send never blocks worker 0.
		c.wake[k] = make(chan struct{}, 1)
		c.exited.Add(1)
		go c.worker(k+1, c.wake[k])
	}
}

// worker is helper w's loop: one claim pass per wake token, until
// stopWorkers closes wake.
func (c *Cluster) worker(w int, wake <-chan struct{}) {
	defer c.exited.Done()
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(),
		pprof.Labels("cord_worker", strconv.Itoa(w))))
	for range wake {
		c.claimShards()
		c.busy.Done()
	}
}

// stopWorkers releases the helpers and waits until each has left its loop.
func (c *Cluster) stopWorkers() {
	for _, wake := range c.wake {
		close(wake)
	}
	c.exited.Wait()
	c.wake = nil
}

// runShard advances shard i to deadline and, with telemetry on, fills its
// row of the window record: start lag and busy time against the window's
// wall-clock base, and the events it retired. Each shard writes only its own
// row, so parallel workers need no synchronization.
func (c *Cluster) runShard(i int, start time.Time, tel bool, deadline Time) error {
	e := c.engines[i]
	if !tel {
		return e.RunUntil(deadline)
	}
	s0, e0 := time.Since(start), e.executed
	err := e.RunUntil(deadline)
	d := time.Since(start)
	c.rec.ShardStartNs[i] = s0.Nanoseconds()
	c.rec.ShardBusyNs[i] = (d - s0).Nanoseconds()
	c.rec.ShardEvents[i] = e.executed - e0
	return err
}

// observeWindow finalizes and delivers the window's telemetry record. Runs
// single-threaded after the barrier; a disabled hook returns immediately.
func (c *Cluster) observeWindow(tel bool, start time.Time, anchor, deadline Time, workers int) {
	if !tel {
		return
	}
	c.rec.Anchor = anchor
	c.rec.Deadline = deadline
	c.rec.Workers = workers
	c.rec.Active = len(c.active)
	c.rec.WallNs = time.Since(start).Nanoseconds()
	c.rec.FlushNs = c.flushNs
	c.flushNs = 0
	c.rec.StealAttempts = c.stealAttempts.Swap(0)
	c.rec.StealHits = c.stealHits.Swap(0)
	c.wobs.ObserveWindow(&c.rec)
}

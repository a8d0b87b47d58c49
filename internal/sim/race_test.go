package sim

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"time"
)

// TestClusterRaceHammer drives the window barrier and the cross-shard
// inboxes as hard as the -race build affords: 16 shards ping-ponging
// cross-shard work at 8 workers, with a randomized seed per iteration (the
// seed is logged so a failure reproduces). Each iteration also re-runs
// serially and compares a digest, so the hammer doubles as a determinism
// check on schedules the fixed-seed battery never sees. Iterations expand in
// the nightly un-short run.
func TestClusterRaceHammer(t *testing.T) {
	iters := 20
	if testing.Short() {
		iters = 4
	}
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	for it := 0; it < iters; it++ {
		seed := rng.Int63()
		serial := hammerOnce(t, seed, 1)
		parallel := hammerOnce(t, seed, 8)
		if serial != parallel {
			t.Fatalf("seed %d: serial digest %d != 8-worker digest %d", seed, serial, parallel)
		}
	}
}

// hammerOnce runs one randomized cross-shard workload and returns an
// order-insensitive digest of (shard, time) execution points. The digest is
// commutative (sum of hashes), so identical event multisets — which windowed
// determinism guarantees — yield identical digests regardless of workers.
func hammerOnce(t *testing.T, seed int64, workers int) uint64 {
	t.Helper()
	const shards = 16
	const window = Time(8)
	c := NewCluster(seed, shards, window)
	ex := newChanExchanger(c)
	var digest atomic.Uint64
	var live atomic.Int64
	mix := func(s int, at Time) {
		h := uint64(s+1)*0x9E3779B97F4A7C15 ^ uint64(at)*0xBF58476D1CE4E5B9
		h ^= h >> 29
		digest.Add(h * 0x94D049BB133111EB)
	}
	var bounce func(s, hops int) func()
	bounce = func(s, hops int) func() {
		return func() {
			eng := c.Engine(s)
			mix(s, eng.Now())
			if hops <= 0 {
				live.Add(-1)
				return
			}
			// Shard-local churn plus a cross-shard hop whose target and
			// timing come from the shard's own PRNG (deterministic per
			// shard, independent of scheduling).
			r := eng.Rand()
			eng.Schedule(Time(1+r.Intn(5)), func() { mix(s, eng.Now()) })
			dst := r.Intn(shards)
			if dst == s {
				eng.Schedule(Time(1+r.Intn(3)), bounce(s, hops-1))
				return
			}
			at := eng.Now() + window + Time(r.Intn(20))
			ex.post(s, at, dst, bounce(dst, hops-1))
		}
	}
	for s := 0; s < shards; s++ {
		live.Add(1)
		c.Engine(s).Schedule(Time(1+s), bounce(s, 25))
	}
	if err := c.Run(workers, ex); err != nil {
		t.Fatalf("seed %d workers %d: %v", seed, workers, err)
	}
	if live.Load() != 0 {
		t.Fatalf("seed %d workers %d: %d bounce chains lost", seed, workers, live.Load())
	}
	return digest.Load()
}

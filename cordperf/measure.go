package main

import (
	"math"
	"runtime/metrics"
	"slices"
	"sync"
	"syscall"
	"time"
)

// goReading is one runtime/metrics sample of the allocator and the GC,
// taken around a call into the program.
type goReading struct {
	allocBytes   uint64
	allocObjects uint64
	gcCPU        float64
}

var goSampleNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
}

// readGo samples the cumulative allocation and GC counters.
func readGo() goReading {
	s := make([]metrics.Sample, len(goSampleNames))
	for i, n := range goSampleNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var r goReading
	if s[0].Value.Kind() == metrics.KindUint64 {
		r.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		r.allocObjects = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = s[2].Value.Float64()
	}
	return r
}

// goDelta is the allocation and GC work between two readings.
type goDelta struct {
	allocBytes   uint64
	allocObjects uint64
	gcCPU        float64
}

func (a goReading) to(b goReading) goDelta {
	return goDelta{
		allocBytes:   b.allocBytes - a.allocBytes,
		allocObjects: b.allocObjects - a.allocObjects,
		gcCPU:        b.gcCPU - a.gcCPU,
	}
}

func (d *goDelta) add(o goDelta) {
	d.allocBytes += o.allocBytes
	d.allocObjects += o.allocObjects
	d.gcCPU += o.gcCPU
}

// cpuSeconds returns the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // only a bad argument can fail RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// heapSampler tracks the highest live heap (the bytes the latest GC
// marked live) while a pass runs, polling runtime/metrics from one
// goroutine. Live bytes, unlike all allocated bytes, do not depend on how
// far the heap overshoots before the collector catches up, which varies
// with host speed. stop ends the goroutine, waits for it, and returns the
// peak.
type heapSampler struct {
	stopc chan struct{}
	done  sync.WaitGroup
	peak  uint64
}

const heapPollInterval = 2 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(heapPollInterval)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if s[0].Value.Kind() == metrics.KindUint64 {
				if v := s[0].Value.Uint64(); v > h.peak {
					h.peak = v
				}
			}
			select {
			case <-h.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop returns the peak heap in MiB.
func (h *heapSampler) stop() float64 {
	close(h.stopc)
	h.done.Wait()
	return float64(h.peak) / (1 << 20)
}

// mean returns the average of xs, or 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// median returns the middle of xs (the mean of the two middles for an even
// count), or 0 for no samples.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// latencyHist is a log-linear histogram of nanosecond durations (8
// sub-buckets per octave) with an exact sum, for per-call timings too
// numerous to keep individually.
type latencyHist struct {
	buckets [64 * 8]uint64
	n       uint64
	sumNs   uint64
}

func histBucket(ns uint64) int {
	if ns < 8 {
		return int(ns)
	}
	msb := 63
	for ns>>uint(msb) == 0 {
		msb--
	}
	sub := int(ns>>uint(msb-3)) & 7
	return (msb-2)*8 + sub
}

// bucketLow inverts histBucket to the bucket's lowest value.
func bucketLow(b int) uint64 {
	if b < 8 {
		return uint64(b)
	}
	msb := b/8 + 2
	sub := uint64(b % 8)
	return 1<<uint(msb) | sub<<uint(msb-3)
}

func (h *latencyHist) add(ns uint64) {
	h.buckets[histBucket(ns)]++
	h.n++
	h.sumNs += ns
}

func (h *latencyHist) merge(o *latencyHist) {
	for i, c := range o.buckets {
		h.buckets[i] += c
	}
	h.n += o.n
	h.sumNs += o.sumNs
}

// quantile returns the q-quantile, interpolated linearly inside the bucket
// that holds it.
func (h *latencyHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := q * float64(h.n)
	var seen float64
	for b, c := range h.buckets {
		if c == 0 {
			continue
		}
		if seen+float64(c) > target {
			lo, hi := float64(bucketLow(b)), float64(bucketLow(b+1))
			return lo + (hi-lo)*(target-seen)/float64(c)
		}
		seen += float64(c)
	}
	return float64(bucketLow(len(h.buckets) - 1))
}

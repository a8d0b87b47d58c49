package main

import (
	"time"

	"cord/internal/noc"
	"cord/internal/obs"
	"cord/internal/proto"
	"cord/internal/sim"
)

// timedSource decorates an op source: it counts and times every Next call
// into a per-source histogram and forwards CoreAttachable, so the wrapped
// source sees its core exactly as it would unwrapped. Each source is
// pulled only from its own core's host shard, so the histogram needs no
// lock.
type timedSource struct {
	inner proto.OpSource
	hist  latencyHist
	// overheadNs is the cost of the two clock reads around a call, taken
	// off every sample.
	overheadNs uint64
}

func (s *timedSource) Next(now sim.Time) (proto.Op, bool) {
	t0 := time.Now()
	op, ok := s.inner.Next(now)
	ns := uint64(time.Since(t0))
	if ns > s.overheadNs {
		ns -= s.overheadNs
	} else {
		ns = 0
	}
	s.hist.add(ns)
	return op, ok
}

// AttachCore implements proto.CoreAttachable by forwarding to the wrapped
// source when it wants its core.
func (s *timedSource) AttachCore(core noc.NodeID, eng *sim.Engine, rec *obs.Recorder) {
	if a, ok := s.inner.(proto.CoreAttachable); ok {
		a.AttachCore(core, eng, rec)
	}
}

// wrapSources decorates every source.
func wrapSources(srcs []proto.OpSource, overheadNs uint64) ([]proto.OpSource, []*timedSource) {
	out := make([]proto.OpSource, len(srcs))
	timed := make([]*timedSource, len(srcs))
	for i, s := range srcs {
		timed[i] = &timedSource{inner: s, overheadNs: overheadNs}
		out[i] = timed[i]
	}
	return out, timed
}

// clockOverheadNs measures the median cost of timing an empty call the way
// timedSource times Next.
func clockOverheadNs() uint64 {
	const n = 20001
	samples := make([]float64, n)
	for i := range samples {
		t0 := time.Now()
		samples[i] = float64(time.Since(t0))
	}
	return uint64(median(samples))
}

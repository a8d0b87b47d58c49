package cord

import (
	"fmt"
	"io"

	"cord/internal/proto"
	"cord/internal/trace"
)

// Trace is a recorded multi-core memory-operation trace (the paper
// evaluates the DOE mini-apps from traces, §5.1). Produce one with
// RecordTrace, serialize with WriteTrace/ReadTrace, and run it with
// SimulateTrace.
type Trace = trace.Trace

// TraceStats is a Table 2-style characterization of a trace.
type TraceStats = trace.Stats

// RecordTrace materializes a workload into a trace for the given system
// shape (the trace embeds concrete addresses, so the shape matters).
func RecordTrace(w Workload, s System) (*Trace, error) {
	nc, err := s.netConfig()
	if err != nil {
		return nil, err
	}
	return trace.FromWorkload(w, nc)
}

// WriteTrace serializes a trace in the cordtrace text format.
func WriteTrace(dst io.Writer, t *Trace) error { return trace.Write(dst, t) }

// ReadTrace parses a cordtrace file.
func ReadTrace(src io.Reader) (*Trace, error) { return trace.Read(src) }

// CharacterizeTrace computes Table 2-style statistics.
func CharacterizeTrace(t *Trace) TraceStats { return trace.Characterize(t) }

// SimulateTrace replays a recorded trace under a protocol.
func SimulateTrace(t *Trace, p Protocol, s System) (*Result, error) {
	nc, err := s.netConfig()
	if err != nil {
		return nil, err
	}
	for _, c := range t.Cores {
		if c.Host >= nc.Hosts || c.Tile >= nc.TilesPerHost {
			return nil, fmt.Errorf("cord: trace core %v outside the %dx%d system",
				c, nc.Hosts, nc.TilesPerHost)
		}
	}
	b, err := builder(p)
	if err != nil {
		return nil, err
	}
	sys := s.newSystem(nc)
	run, err := proto.Exec(sys, b, t.Cores, t.Progs)
	if err != nil {
		return nil, err
	}
	return &Result{run: run}, nil
}

package main

import (
	"fmt"
	"time"

	"cord/internal/noc"
	"cord/internal/proto"
	"cord/internal/proto/cord"
	"cord/internal/proto/mp"
	"cord/internal/proto/so"
	"cord/internal/proto/wb"
	"cord/internal/stats"
	"cord/internal/workload"
	"cord/internal/workload/kvsvc"
)

// schemes are the four compared protocols in the paper's plot order.
var schemes = []string{"MP", "CORD", "SO", "WB"}

func builder(scheme string) proto.Builder {
	switch scheme {
	case "CORD":
		return cord.New()
	case "SO":
		return so.New()
	case "MP":
		return mp.New()
	case "WB":
		return wb.New()
	}
	panic("cordperf: unknown scheme " + scheme)
}

// simCase is one simulation of an engine workload: a fabric, a scheme, and
// the generator of its inputs (a Table-2 pattern or a KV configuration).
type simCase struct {
	key     string // digest key, e.g. "PR/CORD"
	scheme  string
	nc      noc.Config
	seed    int64 // system seed
	workers int
	pattern *workload.Pattern
	kv      *kvsvc.Config
}

// simInputs are a case's generated inputs.
type simInputs struct {
	cores []noc.NodeID
	progs []proto.Program
	svc   *kvsvc.Service
}

func (c *simCase) prepare() (simInputs, error) {
	if c.pattern != nil {
		cores, progs, err := c.pattern.Programs(c.nc)
		return simInputs{cores: cores, progs: progs}, err
	}
	svc, err := c.kv.Build(c.nc)
	if err != nil {
		return simInputs{}, err
	}
	return simInputs{cores: svc.Cores(), svc: svc}, nil
}

// sources returns one fresh op source per core.
func (in *simInputs) sources() []proto.OpSource {
	if in.svc != nil {
		return in.svc.Sources()
	}
	out := make([]proto.OpSource, len(in.progs))
	for i, p := range in.progs {
		out[i] = p.Source()
	}
	return out
}

func (in *simInputs) generatedOps() int {
	n := 0
	for _, p := range in.progs {
		n += len(p)
	}
	return n
}

func (c *simCase) newSystem() *proto.System {
	sys := proto.NewSystem(c.seed, c.nc, proto.RC)
	sys.Workers = c.workers
	return sys
}

// exec runs the case the way its users do: programs through proto.Exec,
// KV sources through proto.ExecSources.
func (c *simCase) exec(sys *proto.System, in *simInputs) (*stats.Run, error) {
	if in.svc == nil {
		return proto.Exec(sys, builder(c.scheme), in.cores, in.progs)
	}
	return proto.ExecSources(sys, builder(c.scheme), in.cores, in.svc.Sources())
}

// outcome condenses a finished case into its digest, the work it did
// (ops retired or requests completed) and its operations attempted and
// failed. A paper-apps case is one operation; a kv-open case is one per
// request it was configured to issue.
type outcome struct {
	digest            string
	work              float64
	attempted, failed int64
	problem           string
}

func (c *simCase) outcome(run *stats.Run, in *simInputs, err error) outcome {
	var o outcome
	if in.svc == nil {
		o.attempted = 1
	} else {
		cfg := in.svc.Config()
		o.attempted = int64(len(in.cores) * cfg.Clients * cfg.Requests)
	}
	if err != nil {
		o.failed, o.problem = o.attempted, fmt.Sprintf("%s: %v", c.key, err)
		return o
	}
	if in.svc == nil {
		o.digest = runDigest(run)
		for i := range run.Procs {
			o.work += float64(run.Procs[i].Ops)
		}
		return o
	}
	st := in.svc.Stats()
	o.digest = kvDigest(run, &st)
	o.work = float64(st.Total())
	if missing := o.attempted - int64(st.Total()); missing > 0 {
		o.failed, o.problem = missing, fmt.Sprintf("%s: %d requests left uncompleted", c.key, missing)
	}
	return o
}

// caseTiming is one untraced case's host-time ledger.
type caseTiming struct {
	prepS, systemS, execS float64
	events                uint64
	genOps                int
	setupGo, execGo       goDelta
}

// run generates the case's inputs, builds its system and executes it,
// timing each call from outside.
func (c *simCase) run() (outcome, caseTiming) {
	var t caseTiming
	g0 := readGo()
	t0 := time.Now()
	in, err := c.prepare()
	t1 := time.Now()
	if err != nil {
		return c.outcome(nil, &in, err), t
	}
	sys := c.newSystem()
	t2 := time.Now()
	g1 := readGo()
	run, err := c.exec(sys, &in)
	t3 := time.Now()
	g2 := readGo()
	t.prepS = t1.Sub(t0).Seconds()
	t.systemS = t2.Sub(t1).Seconds()
	t.execS = t3.Sub(t2).Seconds()
	t.events = sys.Executed()
	t.genOps = in.generatedOps()
	t.setupGo = g0.to(g1)
	t.execGo = g1.to(g2)
	return c.outcome(run, &in, err), t
}

// enginePass is one untraced pass over every case of an engine workload.
type enginePass struct {
	wallS, setupS, execS, cpuS, peakMB, work float64
	outcomes                                 []outcome
	timings                                  []caseTiming
}

func runEnginePass(cases []simCase) enginePass {
	p := enginePass{outcomes: make([]outcome, len(cases)), timings: make([]caseTiming, len(cases))}
	hs := startHeapSampler()
	cpu0 := cpuSeconds()
	start := time.Now()
	for i := range cases {
		o, t := cases[i].run()
		p.outcomes[i], p.timings[i] = o, t
		p.setupS += t.prepS + t.systemS
		p.execS += t.execS
		p.work += o.work
	}
	p.wallS = time.Since(start).Seconds()
	p.cpuS = cpuSeconds() - cpu0
	p.peakMB = hs.stop()
	return p
}

// paperCases is the Fig. 7 suite on the Table-1 CXL fabric under RC: the
// ten Table-2 applications under MP, CORD, SO and WB (MP skips TQH), one
// host shard at a time. The seed offsets each pattern's size sampling and
// the system seed.
func paperCases(seed int64) []simCase {
	nc := noc.CXLConfig()
	var cases []simCase
	for _, app := range workload.Apps() {
		for _, s := range schemes {
			if s == "MP" && app.MPIncompatible {
				continue
			}
			p := app
			p.Seed += seed
			cases = append(cases, simCase{
				key: app.Name + "/" + s, scheme: s, nc: nc,
				seed: 42 + seed, workers: paperWorkers, pattern: &p,
			})
		}
	}
	return cases
}

// Host shards each workload advances per window: paper-apps runs one at a
// time, kv-open two.
const (
	paperWorkers = 1
	kvWorkers    = 2
)

// kvLoads are kv-open's two offered loads, as mean inter-arrival cycles per
// session: one every scheme sustains, and one past SO's and WB's knee.
var kvLoads = []float64{16000, 4000}

// kvCases is the open-loop Zipfian KV service on 64 hosts x 2 server cores
// with index updates on, under all four schemes at both loads, with two
// host shards advancing each window.
func kvCases(seed int64) []simCase {
	nc := noc.CXLConfig()
	nc.Hosts = 64
	var cases []simCase
	for _, load := range kvLoads {
		for _, s := range schemes {
			cfg := kvsvc.Default()
			cfg.ServersPerHost = 2
			cfg.GetPct = 50
			cfg.IndexUpdate = true
			cfg.OpenLoop = true
			cfg.ArrivalCycles = load
			cfg.Seed += seed
			cases = append(cases, simCase{
				key: fmt.Sprintf("a%.0f/%s", load, s), scheme: s, nc: nc,
				seed: 42 + seed, workers: kvWorkers, kv: &cfg,
			})
		}
	}
	return cases
}

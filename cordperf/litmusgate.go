package main

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cord/internal/litmus"
)

// The litmus-gate workload is the cordcheck gate run on every change: the
// full matrix plus the extended matrix under symmetry and partial-order
// reduction, with a reduced-vs-unreduced spot check. It runs the protocol
// core rules and state encoding with no simulator underneath. The checker
// is exhaustive, so the seed does not change its input.
const (
	litmusInstanceWorkers = 2
	litmusVerify          = 50
)

func litmusMatrix() []litmus.SuiteInstance {
	return append(litmus.FullMatrix(litmus.FullCordSuite()), litmus.ExtendedMatrix()...)
}

func litmusOpts(onInstance func(litmus.InstanceReport)) litmus.SuiteOpts {
	return litmus.SuiteOpts{
		InstanceWorkers: litmusInstanceWorkers,
		StateWorkers:    1,
		Symmetry:        true,
		POR:             true,
		VerifyReduction: litmusVerify,
		OnInstance:      onInstance,
	}
}

// litmusKey names matrix instance i for the digests.
func litmusKey(i int, in *litmus.SuiteInstance) string {
	return fmt.Sprintf("%04d %s/%s", i, in.Config, in.Test.Name)
}

// litmusSetupReps is how many times a run builds the matrix to time
// set-up: one build takes about a millisecond.
const litmusSetupReps = 25

// timeMatrixSetup builds the matrix litmusSetupReps times and returns the
// median build time and the last matrix.
func timeMatrixSetup() (float64, []litmus.SuiteInstance) {
	var insts []litmus.SuiteInstance
	samples := make([]float64, litmusSetupReps)
	for i := range samples {
		t := time.Now()
		insts = litmusMatrix()
		samples[i] = time.Since(t).Seconds()
	}
	return median(samples), insts
}

// gatePass is one timed RunMatrix call.
type gatePass struct {
	execS, cpuS, peakMB float64
	reports             []litmus.InstanceReport
	gc                  goDelta
}

func runGate(insts []litmus.SuiteInstance, onInstance func(litmus.InstanceReport)) gatePass {
	var p gatePass
	hs := startHeapSampler()
	cpu0 := cpuSeconds()
	g0 := readGo()
	t0 := time.Now()
	// RunMatrix's error only aggregates the instances whose reports carry
	// an Error, which recordGate counts as failed.
	p.reports, _ = litmus.RunMatrix(insts, litmusOpts(onInstance))
	p.execS = time.Since(t0).Seconds()
	p.gc = g0.to(readGo())
	p.cpuS = cpuSeconds() - cpu0
	p.peakMB = hs.stop()
	return p
}

// recordGate checks every instance report of a pass: it must have
// completed, passed, and match the golden verdict.
func recordGate(ck *checks, insts []litmus.SuiteInstance, p *gatePass, what string) {
	for i := range p.reports {
		r := &p.reports[i]
		key := litmusKey(i, &insts[i])
		ck.attempted++
		switch {
		case r.Error != "":
			ck.failed++
			ck.problem("%s %s: %s", key, what, r.Error)
		case !r.Pass:
			ck.failed++
			ck.problem("%s %s: failed (%s)", key, what, verdictDigest(r))
		case !ck.match(key, what, verdictOf(ck, key, verdictDigest(r))):
			ck.failed++
		}
	}
}

// verdictOf returns the digest to compare for a verdict: the golden entry
// holds "verdict|outcomes", and a pass only produces the verdict, so the
// golden's outcome part is appended when present.
func verdictOf(ck *checks, key, verdict string) string {
	if want, ok := ck.golden[key]; ok {
		if _, outcomes, found := strings.Cut(want, "|"); found {
			return verdict + "|" + outcomes
		}
	}
	return verdict
}

// checkOutcomes re-checks every instance with the gate's reductions to
// obtain its reachable outcome set and compares verdict and outcomes with
// the golden; a mismatch fails the instance. It runs outside any timing.
func checkOutcomes(ck *checks, insts []litmus.SuiteInstance) {
	if ck.golden == nil {
		return
	}
	d := outcomeDigests(insts)
	for i := range insts {
		key := litmusKey(i, &insts[i])
		if want := ck.golden[key]; d[key] != want {
			ck.failed++
			ck.problem("%s outcomes: %s, golden %s", key, d[key], want)
		}
	}
}

// outcomeDigests checks every instance directly and returns, per key, its
// verdict digest and outcome-set digest joined by "|".
func outcomeDigests(insts []litmus.SuiteInstance) map[string]string {
	out := make([]string, len(insts))
	var wg sync.WaitGroup
	var next atomic.Int64
	for w := 0; w < litmusInstanceWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(insts) {
					return
				}
				in := &insts[i]
				res, err := litmus.CheckWith(in.Test, in.Cfg, litmus.CheckOpts{Symmetry: true, POR: true})
				if err != nil {
					out[i] = "error: " + err.Error()
					continue
				}
				r := litmus.InstanceReport{Forbidden: res.Forbidden, Deadlock: res.Deadlock,
					WindowViolated: res.WindowViolated, Reached: res.Reached}
				if in.ExpectForbidden {
					r.Pass = res.Forbidden && !res.Deadlock
				} else {
					r.Pass = res.Pass()
				}
				out[i] = verdictDigest(&r) + "|" + outcomeDigest(&res)
			}
		}()
	}
	wg.Wait()
	d := make(map[string]string, len(insts))
	for i := range insts {
		d[litmusKey(i, &insts[i])] = out[i]
	}
	return d
}

// litmusDigests is the golden record of the gate.
func litmusDigests() (map[string]string, error) {
	insts := litmusMatrix()
	p := runGate(insts, nil)
	d := outcomeDigests(insts)
	for i := range p.reports {
		key := litmusKey(i, &insts[i])
		r := &p.reports[i]
		if r.Error != "" || !r.Pass {
			return nil, fmt.Errorf("%s: gate instance failed: %s %s", key, r.Error, verdictDigest(r))
		}
		if v, _, _ := strings.Cut(d[key], "|"); v != verdictDigest(r) {
			return nil, fmt.Errorf("%s: RunMatrix verdict %s, CheckWith verdict %s", key, verdictDigest(r), v)
		}
	}
	return d, nil
}

func untracedLitmus(o options, ck *checks) metricSet {
	var thr, setup, cpu, peak []float64
	measureLoop(o.seconds, func() {
		s, insts := timeMatrixSetup()
		p := runGate(insts, nil)
		recordGate(ck, insts, &p, "untraced")
		thr = append(thr, float64(len(insts))/p.execS)
		setup = append(setup, s)
		cpu = append(cpu, p.cpuS)
		peak = append(peak, p.peakMB)
	})
	checkOutcomes(ck, litmusMatrix())
	m := metricSet{}
	endToEnd(m, thr, setup, cpu, peak)
	return m
}

// tracedLitmus runs the checker's ledger: an untraced gate pass, a traced
// pass whose OnInstance callback collects each instance's report, and the
// reduced-vs-unreduced spot check's unreduced reruns timed from outside.
func tracedLitmus(o options, ck *checks) metricSet {
	start := time.Now()
	setupS, insts := timeMatrixSetup()
	base := runGate(insts, nil)
	recordGate(ck, insts, &base, "untraced")
	passS := time.Since(start).Seconds()

	var mu sync.Mutex
	var instMS []float64
	var states, raw, reduced, peak int
	traced := runGate(insts, func(r litmus.InstanceReport) {
		mu.Lock()
		defer mu.Unlock()
		instMS = append(instMS, r.WallMS)
		states += r.States
		if r.StatesRaw > 0 {
			raw += r.StatesRaw
			reduced += r.States
		}
		peak = max(peak, r.PeakFrontier)
	})
	recordGate(ck, insts, &traced, "traced")

	// RunMatrix verifies every stride-th instance; time the same unreduced
	// checks from outside.
	var verifyS float64
	for i := 0; i < len(insts); i += max(1, len(insts)/litmusVerify) {
		t := time.Now()
		_, err := litmus.CheckWith(insts[i].Test, insts[i].Cfg, litmus.CheckOpts{Workers: 1})
		verifyS += time.Since(t).Seconds()
		ck.compare(err == nil, "%s unreduced: %v", litmusKey(i, &insts[i]), err)
	}
	checkOutcomes(ck, insts)

	m := newLayerSet()
	m.put("litmus.instances", float64(len(instMS)))
	m.put("litmus.states", float64(states))
	m.put("litmus.states_per_s", ratio(float64(states), traced.execS))
	m.put("litmus.instance_ms.p50", quantile(instMS, 0.5))
	m.put("litmus.instance_ms.p99", quantile(instMS, 0.99))
	m.put("litmus.verify_s", verifyS)
	m.put("litmus.reduction_ratio", ratio(float64(raw), float64(reduced)))
	m.put("litmus.peak_frontier", float64(peak))
	m.put("go.gc_cpu_s", base.gc.gcCPU)
	m.put("go.alloc_mb", float64(base.gc.allocBytes)/(1<<20))
	m.put("ledger.pass_s", passS)
	m.put("unattributed_frac", 1-ratio(setupS+base.execS, passS))
	m.put("trace_overhead_frac", ratio(traced.execS-base.execS, base.execS))
	return m
}

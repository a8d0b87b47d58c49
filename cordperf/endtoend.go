package main

import (
	"fmt"
	"strconv"
	"time"
)

// End-to-end metrics, reported by every workload from untraced passes:
//
//	throughput_per_s  work per host second inside the program's run calls:
//	                  simulated ops retired (paper-apps), KV requests
//	                  completed (kv-open), checker instances (litmus-gate)
//	setup_s           host seconds to generate inputs and construct systems
//	                  (or the checker matrix) for one pass
//	cpu_s             process CPU seconds (user+sys) per pass
//	peak_heap_mb      highest live heap (bytes a GC marked live) during a
//	                  pass
//
// The first three are medians over the passes of one run. The peak is the
// mean of the passes' peaks: which allocations a collection happens to
// catch live varies from pass to pass, and on the checker's small heap the
// per-pass peaks fall into two clusters, between which a median flips.

// measureLoop runs pass until about seconds have elapsed (at least once),
// stopping before a pass that would overshoot by more than half its length.
func measureLoop(seconds float64, pass func()) {
	start := time.Now()
	var last float64
	for n := 0; n == 0 || time.Since(start).Seconds()+last/2 < seconds; n++ {
		t := time.Now()
		pass()
		last = time.Since(t).Seconds()
	}
}

func endToEnd(m metricSet, throughput, setup, cpu, peak []float64) {
	m.set("throughput_per_s", median(throughput), "1/s")
	m.set("setup_s", median(setup), "s")
	m.set("cpu_s", median(cpu), "s")
	m.set("peak_heap_mb", mean(peak), "MiB")
}

// untracedEngine measures an engine workload's passes.
func untracedEngine(mk func(int64) []simCase) func(options, *checks) metricSet {
	return func(o options, ck *checks) metricSet {
		cases := mk(o.seed)
		var thr, setup, cpu, peak []float64
		measureLoop(o.seconds, func() {
			p := runEnginePass(cases)
			for i := range cases {
				ck.record(cases[i].key, "untraced", p.outcomes[i])
			}
			thr = append(thr, p.work/p.execS)
			setup = append(setup, p.setupS)
			cpu = append(cpu, p.cpuS)
			peak = append(peak, p.peakMB)
		})
		m := metricSet{}
		endToEnd(m, thr, setup, cpu, peak)
		return m
	}
}

// recordPass runs one untraced pass and records its digests as the golden
// outputs of the workload at the seed.
func recordPass(o options, path string) error {
	if o.workload == "litmus-gate" {
		d, err := litmusDigests()
		if err != nil {
			return err
		}
		return recordGolden(path, o.workload, "*", d)
	}
	var cases []simCase
	if o.workload == "paper-apps" {
		cases = paperCases(o.seed)
	} else {
		cases = kvCases(o.seed)
	}
	p := runEnginePass(cases)
	d := map[string]string{}
	for i, c := range cases {
		if p.outcomes[i].problem != "" {
			return fmt.Errorf("%s", p.outcomes[i].problem)
		}
		d[c.key] = p.outcomes[i].digest
	}
	return recordGolden(path, o.workload, strconv.FormatInt(o.seed, 10), d)
}

package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"os"
	"sort"
	"strconv"

	"cord/internal/litmus"
	"cord/internal/sim"
	"cord/internal/stats"
	"cord/internal/workload/kvsvc"
)

// Digests condense a simulated output into a short hash, so the benchmark
// can compare a run against the committed golden outputs and against
// itself (pass to pass, untraced against traced). They cover only
// simulated quantities; host-side counts such as kernel events or checker
// states are deliberately left out, so a change that simulates the same
// thing with fewer events or states still matches.

func sum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil))[:16] }

// runDigest covers a simulation's execution time, per-class traffic,
// per-core stall cycles by kind, op counts and release-latency
// distributions.
func runDigest(r *stats.Run) string {
	h := sha256.New()
	writeRun(h, r)
	return sum(h)
}

func writeRun(h hash.Hash, r *stats.Run) {
	fmt.Fprintf(h, "time %d\n", r.Time)
	t := &r.Traffic
	fmt.Fprintf(h, "traffic %v %v %v %v\n", t.InterBytes, t.IntraBytes, t.InterMsgs, t.IntraMsgs)
	for i := range r.Procs {
		p := &r.Procs[i]
		fmt.Fprintf(h, "proc %d stall %v ops %d rel %d rlx %d fin %d cmp %d lat",
			i, p.Stall, p.Ops, p.Releases, p.Relaxed, p.Finished, p.ComputeCyc)
		fmt.Fprintf(h, " n=%d mean=%g max=%d", p.ReleaseLatency.Count(),
			p.ReleaseLatency.Mean(), p.ReleaseLatency.Max())
		p.ReleaseLatency.ForBuckets(func(le sim.Time, cum uint64) { fmt.Fprintf(h, " %d:%d", le, cum) })
		fmt.Fprintln(h)
	}
}

// kvDigest covers a KV run's simulated outputs plus the service's
// completed counts and latency histograms per request class.
func kvDigest(r *stats.Run, st *kvsvc.Stats) string {
	h := sha256.New()
	writeRun(h, r)
	for k := range st.Completed {
		d := &st.Latency[k]
		fmt.Fprintf(h, "class %d done %d n=%d mean=%g max=%d", k, st.Completed[k], d.Count(), d.Mean(), d.Max())
		d.ForBuckets(func(le sim.Time, cum uint64) { fmt.Fprintf(h, " %d:%d", le, cum) })
		fmt.Fprintln(h)
	}
	return sum(h)
}

// verdictDigest covers a checker instance's verdict fields as RunMatrix
// reports them, one letter each (upper case when set): pass, forbidden,
// deadlock, window violated, reached.
func verdictDigest(r *litmus.InstanceReport) string {
	b := []byte("pfdwr")
	for i, set := range []bool{r.Pass, r.Forbidden, r.Deadlock, r.WindowViolated, r.Reached} {
		if set {
			b[i] -= 'a' - 'A'
		}
	}
	return string(b)
}

// outcomeDigest covers the set of reachable terminal outcomes of a check.
func outcomeDigest(res *litmus.Result) string {
	keys := make([]string, 0, len(res.Outcomes))
	for k := range res.Outcomes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintln(h, k)
	}
	return fmt.Sprintf("%d:%s", len(keys), sum(h))
}

// golden maps workload -> seed -> case key -> digest. Litmus verdicts do
// not depend on the seed and are stored under seed "*".
type golden map[string]map[string]map[string]string

//go:embed golden.json
var goldenJSON []byte

func loadGolden() (golden, error) {
	g := golden{}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("parse embedded golden.json: %w", err)
	}
	return g, nil
}

// lookup returns the golden digests for a workload and seed, or nil when
// none were recorded.
func (g golden) lookup(workload string, seed int64) map[string]string {
	if m := g[workload]["*"]; m != nil {
		return m
	}
	return g[workload][strconv.FormatInt(seed, 10)]
}

// recordGolden merges digests for one workload and seed into the golden
// file at path, creating it when absent.
func recordGolden(path, workload, seed string, digests map[string]string) error {
	g := golden{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &g); err != nil {
			return fmt.Errorf("parse %s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	if g[workload] == nil {
		g[workload] = map[string]map[string]string{}
	}
	g[workload][seed] = digests
	b, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

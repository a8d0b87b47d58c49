package exp

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"cord/internal/obs"
	"cord/internal/proto"
	"cord/internal/stats"
	"cord/internal/workload"
)

// detWorkload is small enough to run all four schemes twice quickly while
// still exercising cross-host releases, jitter, and acquire polling.
func detWorkload() workload.Pattern { return workload.Micro(64, 1024, 2, 10) }

// runObserved executes one scheme with full event tracing.
func runObserved(t *testing.T, s Scheme, seed int64) (*stats.Run, []obs.Event) {
	t.Helper()
	rec := obs.New()
	r, err := RunObserved(detWorkload(), Builder(s), NetConfig(CXL), proto.RC, seed, rec)
	if err != nil {
		t.Fatalf("%s: %v", s, err)
	}
	return r, rec.Events()
}

// TestDeterminismAcrossRuns runs every scheme twice on the same seed and
// requires bit-identical statistics and bit-identical observability event
// streams. A failure pinpoints the first divergent event, which is how a
// nondeterministic send order (map iteration before Send, stray PRNG use)
// surfaces concretely.
func TestDeterminismAcrossRuns(t *testing.T) {
	for _, s := range Schemes() {
		s := s
		t.Run(string(s), func(t *testing.T) {
			r1, e1 := runObserved(t, s, 42)
			r2, e2 := runObserved(t, s, 42)
			if r1.Time != r2.Time {
				t.Errorf("execution time diverged: %d vs %d", r1.Time, r2.Time)
			}
			if r1.Traffic != r2.Traffic {
				t.Errorf("traffic accounting diverged")
			}
			if len(e1) == 0 {
				t.Fatal("vacuous: no events recorded")
			}
			if d := obs.FirstDiff(e1, e2); d != "" {
				t.Errorf("event streams diverged under %s:\n%s", s, d)
			}
		})
	}
}

// TestForEachParallelMatchesSerial runs the same simulation batch through the
// worker pool and through a plain serial loop: both deterministic by design,
// so all results must be identical.
func TestForEachParallelMatchesSerial(t *testing.T) {
	type cell struct {
		s Scheme
		f Interconnect
	}
	var cells []cell
	for _, s := range Schemes() {
		for _, f := range Interconnects() {
			cells = append(cells, cell{s, f})
		}
	}
	run := func(c cell) (*stats.Run, error) {
		return Run(detWorkload(), Builder(c.s), NetConfig(c.f), proto.RC, 7)
	}
	serial := make([]*stats.Run, len(cells))
	for i, c := range cells {
		r, err := run(c)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = r
	}
	parallel := make([]*stats.Run, len(cells))
	if err := forEach(len(cells), func(i int) error {
		r, err := run(cells[i])
		parallel[i] = r
		return err
	}); err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		if serial[i].Time != parallel[i].Time {
			t.Errorf("%s/%s: time %d serial vs %d parallel",
				cells[i].s, cells[i].f, serial[i].Time, parallel[i].Time)
		}
		if serial[i].Traffic != parallel[i].Traffic {
			t.Errorf("%s/%s: traffic diverged between serial and parallel", cells[i].s, cells[i].f)
		}
	}
}

// TestForEachCollectsAllErrors asserts a failing sweep names every failed
// configuration, not just the first: forEach must run all n items and join
// the errors.
func TestForEachCollectsAllErrors(t *testing.T) {
	sentinel := errors.New("boom")
	err := forEach(6, func(i int) error {
		if i%2 == 1 {
			return fmt.Errorf("config %d: %w", i, sentinel)
		}
		return nil
	})
	if err == nil {
		t.Fatal("forEach swallowed errors")
	}
	if !errors.Is(err, sentinel) {
		t.Errorf("joined error lost the cause chain: %v", err)
	}
	for _, want := range []string{"config 1", "config 3", "config 5"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error omits %q: %v", want, err)
		}
	}
}

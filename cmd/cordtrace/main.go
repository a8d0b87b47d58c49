// Command cordtrace analyzes event traces exported by cordsim -trace-out
// (JSONL, one event per line). It answers the questions the aggregate stats
// cannot: where each core's cycles went, which releases were slowest and why,
// and how two runs' traffic differs class by class.
//
// Subcommands:
//
//	analyze   trace.jsonl             per-core attribution + machine breakdown
//	top       [-k 10] trace.jsonl     slowest releases with per-segment latency
//	diff      a.jsonl b.jsonl         per-class traffic delta between two runs
//	first-diff a.jsonl b.jsonl        first diverging event of two traces
//	breakdown trace.jsonl...          Fig. 2-style breakdown row per trace
//	requests  trace.jsonl             service-level request latency per class
//	                                  (kvsvc runs; aggregates req-done events)
//	scaling   report.json             parallel-efficiency attribution of a
//	                                  cordsim -runtime-report snapshot
//
// All subcommands accept -csv for machine-readable output. Traces must be
// recorded at -trace-sample 1 for the attribution to be exact; sampled traces
// still analyze, but undercount.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"cord/internal/obs"
	"cord/internal/obs/analyze"
	rt "cord/internal/obs/runtime"
)

func usage() {
	fmt.Fprint(os.Stderr, `usage: cordtrace <command> [flags] <trace.jsonl>...

commands:
  analyze   trace.jsonl        per-core time attribution and machine breakdown
  top       trace.jsonl        slowest releases on the critical path (-k N)
  diff      a.jsonl b.jsonl    per-class traffic delta between two traces
  first-diff a.jsonl b.jsonl   index and both sides of the first diverging
                               event (exit status 1 when the traces differ)
  breakdown trace.jsonl...     compute/stall/traffic breakdown per trace
  requests  trace.jsonl        service-level request latency per class (kvsvc)
  scaling   report.json        parallel efficiency + lost-speedup attribution
                               from a cordsim -runtime-report snapshot

flags (per command):
  -csv    emit CSV instead of aligned tables
  -k N    number of releases for top (default 10)
`)
	os.Exit(2)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "analyze":
		err = cmdAnalyze(args)
	case "top":
		err = cmdTop(args)
	case "diff":
		err = cmdDiff(args)
	case "first-diff":
		err = cmdFirstDiff(args, os.Stdout)
	case "breakdown":
		err = cmdBreakdown(args)
	case "requests":
		err = cmdRequests(args)
	case "scaling":
		err = cmdScaling(args)
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "cordtrace: unknown command %q\n\n", cmd)
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "cordtrace: %v\n", err)
		os.Exit(1)
	}
}

func loadTrace(path string) ([]obs.Event, error) {
	var r io.Reader
	if path == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	events, err := obs.ReadJSONL(r)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(events) == 0 {
		return nil, fmt.Errorf("%s: empty trace", path)
	}
	return events, nil
}

func cmdAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	csv := fs.Bool("csv", false, "emit CSV")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("analyze wants exactly one trace, got %d", fs.NArg())
	}
	events, err := loadTrace(fs.Arg(0))
	if err != nil {
		return err
	}
	att := analyze.Attribute(events)
	tr := analyze.TrafficOf(events)
	if *csv {
		return att.WriteCSV(os.Stdout)
	}
	if err := att.WriteTable(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	b := att.Breakdown(tr)
	if err := b.WriteTable(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	cp := analyze.CriticalPath(events)
	if len(cp.Releases) > 0 {
		if err := cp.WriteTable(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

// errTracesDiffer makes first-diff exit non-zero, as diff(1) does.
var errTracesDiffer = errors.New("traces differ")

// cmdFirstDiff names the first event where two traces diverge, the way the
// determinism tests report a divergence.
func cmdFirstDiff(args []string, w io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("first-diff wants exactly two traces, got %d", len(args))
	}
	a, err := loadTrace(args[0])
	if err != nil {
		return err
	}
	b, err := loadTrace(args[1])
	if err != nil {
		return err
	}
	if d := obs.FirstDiff(a, b); d != "" {
		fmt.Fprintln(w, d)
		return errTracesDiffer
	}
	fmt.Fprintf(w, "identical: %d events\n", len(a))
	return nil
}

func cmdTop(args []string) error {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	csv := fs.Bool("csv", false, "emit CSV")
	k := fs.Int("k", 10, "number of releases to show")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("top wants exactly one trace, got %d", fs.NArg())
	}
	events, err := loadTrace(fs.Arg(0))
	if err != nil {
		return err
	}
	cp := analyze.CriticalPath(events)
	if len(cp.Releases) == 0 {
		return fmt.Errorf("%s: no releases in trace (relaxed-only run, or acks sampled out)", fs.Arg(0))
	}
	if *csv {
		return cp.WriteTopCSV(os.Stdout, *k)
	}
	if err := cp.WriteTable(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	return cp.WriteTop(os.Stdout, *k)
}

func cmdDiff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	csv := fs.Bool("csv", false, "emit CSV")
	fs.Parse(args)
	if fs.NArg() != 2 {
		return fmt.Errorf("diff wants exactly two traces, got %d", fs.NArg())
	}
	ea, err := loadTrace(fs.Arg(0))
	if err != nil {
		return err
	}
	eb, err := loadTrace(fs.Arg(1))
	if err != nil {
		return err
	}
	rows := analyze.DiffTraffic(analyze.TrafficOf(ea), analyze.TrafficOf(eb))
	if *csv {
		return analyze.WriteTrafficDiffCSV(os.Stdout, rows)
	}
	fmt.Printf("A = %s\nB = %s\n\n", fs.Arg(0), fs.Arg(1))
	return analyze.WriteTrafficDiff(os.Stdout, rows)
}

func cmdScaling(args []string) error {
	fs := flag.NewFlagSet("scaling", flag.ExitOnError)
	csv := fs.Bool("csv", false, "emit per-bucket CSV")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("scaling wants exactly one runtime report, got %d", fs.NArg())
	}
	rep, err := rt.LoadReport(fs.Arg(0))
	if err != nil {
		return err
	}
	if rep.Totals.Windows == 0 {
		return fmt.Errorf("%s: no windows recorded", fs.Arg(0))
	}
	if *csv {
		return rt.WriteScalingCSV(os.Stdout, rep)
	}
	return rt.WriteScaling(os.Stdout, rep)
}

func cmdBreakdown(args []string) error {
	fs := flag.NewFlagSet("breakdown", flag.ExitOnError)
	csv := fs.Bool("csv", false, "emit CSV")
	fs.Parse(args)
	if fs.NArg() < 1 {
		return fmt.Errorf("breakdown wants at least one trace")
	}
	for i, path := range fs.Args() {
		events, err := loadTrace(path)
		if err != nil {
			return err
		}
		b := analyze.BreakdownOf(events)
		if *csv {
			if err := b.WriteCSV(os.Stdout); err != nil {
				return err
			}
			continue
		}
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("%s:\n", path)
		if err := b.WriteTable(os.Stdout); err != nil {
			return err
		}
		tr := analyze.TrafficOf(events)
		if err := tr.WriteTable(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

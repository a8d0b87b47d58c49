package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"cord"
	rt "cord/internal/obs/runtime"
)

func TestKVRuntimeReportWritten(t *testing.T) {
	// A single kvsvc point with -runtime-report writes a report whose
	// totals cover every shard of the run.
	path := filepath.Join(t.TempDir(), "runtime.json")
	sys := cord.CXLSystem()
	sys.Hosts = 2
	sys.SimWorkers = 2
	f := kvFlags{clients: 2, requests: 4, getPct: 50, valueBytes: 64,
		shards: 2, servers: 1, think: 500, loads: "1"}
	runKV(f, cord.CORD, sys, false, 1, "", "", path, 1)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no runtime report: %v", err)
	}
	var rep rt.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("parse runtime report: %v", err)
	}
	if rep.Totals.Windows == 0 || rep.Totals.Events == 0 || len(rep.PerShard) != sys.Hosts {
		t.Fatalf("report covers %d windows, %d events, %d shards; want a 2-shard run",
			rep.Totals.Windows, rep.Totals.Events, len(rep.PerShard))
	}
}

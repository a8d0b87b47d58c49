package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTrace writes a hand-made JSONL trace into dir and returns its path.
func writeTrace(t *testing.T, dir, name string, lines ...string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestFirstDiff(t *testing.T) {
	dir := t.TempDir()
	send := `{"at":10,"k":"send","src":"c0.1","dst":"d1.2","class":"relaxed-data","bytes":96,"dur":342,"wait":12}`
	deliver := `{"at":352,"k":"deliver","src":"c0.1","dst":"d1.2","class":"relaxed-data","bytes":96,"dur":342}`
	late := `{"at":353,"k":"deliver","src":"c0.1","dst":"d1.2","class":"relaxed-data","bytes":96,"dur":343}`
	base := writeTrace(t, dir, "a.jsonl", send, deliver)
	same := writeTrace(t, dir, "same.jsonl", send, deliver)
	moved := writeTrace(t, dir, "moved.jsonl", send, late)
	prefix := writeTrace(t, dir, "prefix.jsonl", send)

	cases := []struct {
		name, b string
		differ  bool
		want    []string
	}{
		{"identical", same, false, []string{"identical: 2 events"}},
		{"diverging event", moved, true, []string{"at event 1", "At:352", "At:353"}},
		{"count mismatch", prefix, true, []string{"event counts differ: 2 vs 1", "first 1 identical"}},
	}
	for _, c := range cases {
		var out bytes.Buffer
		err := cmdFirstDiff([]string{base, c.b}, &out)
		if c.differ != errors.Is(err, errTracesDiffer) || (!c.differ && err != nil) {
			t.Fatalf("%s: error %v, want differ=%v", c.name, err, c.differ)
		}
		for _, w := range c.want {
			if !strings.Contains(out.String(), w) {
				t.Errorf("%s: output %q lacks %q", c.name, out.String(), w)
			}
		}
	}
	if err := cmdFirstDiff([]string{base}, &bytes.Buffer{}); err == nil {
		t.Error("first-diff with one trace should fail")
	}
}

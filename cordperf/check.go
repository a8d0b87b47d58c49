package main

import "fmt"

// checks tallies the operations a run attempted and failed. An operation
// fails when it errors, leaves requests uncompleted, has the wrong verdict,
// or when its simulated output differs from the committed golden digest,
// from the same case in an earlier pass, or between the untraced run and
// the traced or capture runs of the same case.
type checks struct {
	attempted, failed int64
	golden            map[string]string // nil when no golden exists for the seed
	first             map[string]string // first digest seen per case key
	problems          []string
}

func newChecks(g map[string]string) *checks {
	return &checks{golden: g, first: map[string]string{}}
}

// maxProblems bounds how many failure descriptions a run prints.
const maxProblems = 20

func (c *checks) problem(format string, args ...any) {
	if len(c.problems) < maxProblems {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// record counts one case outcome: its own failures, plus every one of its
// operations when its digest mismatches.
func (c *checks) record(key, what string, o outcome) {
	c.attempted += o.attempted
	c.failed += o.failed
	if o.problem != "" {
		c.problem("%s", o.problem)
		return
	}
	if !c.match(key, what, o.digest) {
		c.failed += o.attempted - o.failed
	}
}

// match compares a digest against the golden and the first one seen for
// the key, reporting whether both agree.
func (c *checks) match(key, what, digest string) bool {
	ok := true
	if c.golden != nil {
		if want, found := c.golden[key]; !found || want != digest {
			c.problem("%s %s: digest %s, golden %s", key, what, digest, want)
			ok = false
		}
	}
	if prev, seen := c.first[key]; !seen {
		c.first[key] = digest
	} else if prev != digest {
		c.problem("%s %s: digest %s differs from the first run's %s", key, what, digest, prev)
		ok = false
	}
	return ok
}

// compare counts a mismatch between two measurements of one already
// counted operation (a replay's traffic against its run's) as a failure of
// that operation.
func (c *checks) compare(ok bool, format string, args ...any) {
	if !ok {
		c.failed++
		c.problem(format, args...)
	}
}

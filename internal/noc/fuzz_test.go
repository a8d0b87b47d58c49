package noc

import (
	"testing"

	"cord/internal/sim"
	"cord/internal/stats"
)

// FuzzConfigValidate throws arbitrary geometry at Config: Validate must
// decide (never panic), and every configuration it accepts must yield a
// well-formed network — a positive conservative lookahead, a symmetric mesh
// metric obeying the triangle inequality, an invertible node index, and a
// Send that delivers to exactly the addressed node. The committed seed
// corpus pins the Table 1 shapes plus the historically interesting edges
// (single tile, one column, ring, fractional bandwidth).
func FuzzConfigValidate(f *testing.F) {
	f.Add(8, 8, 4, int64(10), 150.0, 32.0, 4, 0, false, 3, 17)   // Table 1 CXL
	f.Add(8, 8, 4, int64(10), 50.0, 32.0, 4, 0, false, 11, 2)    // Table 1 UPI
	f.Add(2, 4, 4, int64(10), 150.0, 32.0, 0, 0, false, 0, 5)    // proto smallConfig
	f.Add(1, 1, 1, int64(1), 150.0, 32.0, 0, 0, false, 0, 0)     // degenerate single node
	f.Add(64, 2, 2, int64(10), 150.0, 32.0, 4, 1, true, 40, 9)   // scaled ring
	f.Add(256, 2, 1, int64(5), 50.0, 0.5, 2, 0, false, 100, 300) // 256 hosts, fractional link
	f.Add(0, 0, 0, int64(0), 0.0, 0.0, -1, -1, false, 0, 0)      // all-invalid
	f.Add(3, 9, 3, int64(0), 0.0001, 1.0, 0, 8, true, 2, 4)      // zero-latency clamp
	f.Fuzz(func(t *testing.T, hosts, tiles, cols int, hop int64,
		interNs, linkBPC float64, jitter, port int, ring bool, na, nb int) {
		cfg := Config{
			Hosts: hosts, TilesPerHost: tiles, MeshCols: cols,
			HopCycles: sim.Time(hop), InterHostNs: interNs,
			LinkBytesPerCycle: linkBPC, JitterCycles: jitter, PortTile: port,
		}
		if ring {
			cfg.Topology = Ring
		}
		if err := cfg.Validate(); err != nil {
			return // rejected is always a valid verdict; it just must not panic
		}
		if cfg.Lookahead() < 1 {
			t.Fatalf("accepted config has lookahead %d < 1", cfg.Lookahead())
		}
		// Mesh distance is a metric: identity, symmetry, triangle inequality.
		mod := func(v int) int {
			v %= cfg.TilesPerHost
			if v < 0 {
				v += cfg.TilesPerHost
			}
			return v
		}
		a, b := mod(na), mod(nb)
		if d := cfg.meshHops(a, a); d != 0 {
			t.Fatalf("meshHops(%d,%d) = %d, want 0", a, a, d)
		}
		ab, ba := cfg.meshHops(a, b), cfg.meshHops(b, a)
		if ab != ba {
			t.Fatalf("meshHops asymmetric: (%d,%d)=%d but (%d,%d)=%d", a, b, ab, b, a, ba)
		}
		if ab < 0 {
			t.Fatalf("negative mesh distance %d", ab)
		}
		c := mod(na ^ nb)
		if via := cfg.meshHops(a, c) + cfg.meshHops(c, b); ab > via {
			t.Fatalf("triangle violated: d(%d,%d)=%d > d(%d,%d)+d(%d,%d)=%d",
				a, b, ab, a, c, c, b, via)
		}
		if cfg.Hosts*cfg.TilesPerHost > 1<<14 {
			return // geometry checks done; skip network construction for huge shapes
		}
		// Every accepted geometry must build, index nodes invertibly, and
		// route a message to exactly the addressed node.
		n := newTestNet(cfg, 1)
		modH := func(v int) int { return ((v % cfg.Hosts) + cfg.Hosts) % cfg.Hosts }
		src := CoreID(modH(na), mod(na*7))
		dst := DirID(modH(nb), mod(nb*3))
		for _, id := range []NodeID{src, dst} {
			idx := n.nodeIndex(id)
			if idx < 0 {
				t.Fatalf("in-range node %v not indexable", id)
			}
			if got := n.nodeAt(int32(idx)); got != id {
				t.Fatalf("nodeAt(nodeIndex(%v)) = %v", id, got)
			}
		}
		if lab, lba := n.Latency(src, dst), n.Latency(dst, src); lab != lba {
			t.Fatalf("Latency asymmetric: %v->%v %d, %v->%v %d", src, dst, lab, dst, src, lba)
		}
		delivered := 0
		n.Register(dst, func(from NodeID, payload any) {
			delivered++
			if from != src {
				t.Fatalf("delivery reports source %v, want %v", from, src)
			}
			if payload != "probe" {
				t.Fatalf("payload corrupted: %v", payload)
			}
		})
		if src != dst {
			n.Register(src, func(NodeID, any) { t.Fatalf("message mis-routed back to %v", src) })
		}
		n.round(t, func(uint64, any) { n.Send(src, dst, stats.ClassRelaxedData, 64, "probe") }, src.Host)
		if delivered != 1 {
			t.Fatalf("message delivered %d times", delivered)
		}
	})
}

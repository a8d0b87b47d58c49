package noc

import (
	"testing"
	"testing/quick"

	"cord/internal/sim"
	"cord/internal/stats"
)

func testConfig() Config {
	c := CXLConfig()
	c.JitterCycles = 0
	return c
}

// testNet is a network over a fresh cluster (one engine per host) with a
// traffic accumulator per host and no handlers registered.
type testNet struct {
	*Network
	cl       *sim.Cluster
	traffics []*stats.Traffic
}

func newTestNet(cfg Config, seed int64) *testNet {
	cl := sim.NewCluster(seed, cfg.Hosts, cfg.Lookahead())
	traffics := make([]*stats.Traffic, cfg.Hosts)
	for i := range traffics {
		traffics[i] = &stats.Traffic{}
	}
	return &testNet{Network: NewPartitioned(cl.Engines(), cfg, traffics), cl: cl, traffics: traffics}
}

// sinkAll registers a no-op handler on every node that has none yet.
func (tn *testNet) sinkAll() *testNet {
	for i, h := range tn.handlers {
		if h == nil {
			tn.Register(tn.nodeAt(int32(i)), func(NodeID, any) {})
		}
	}
	return tn
}

// now is host h's engine clock.
func (tn *testNet) now(h int) sim.Time { return tn.cl.Engine(h).Now() }

// run advances the cluster until every engine and outbox has drained.
func (tn *testNet) run(tb testing.TB) {
	tb.Helper()
	if err := tn.cl.Run(1, tn.Network); err != nil {
		tb.Fatal(err)
	}
}

// round schedules drive on each listed host's engine — its source word is
// the host — and runs the cluster. Sends must come from a driver event: the
// cluster only learns of buffered cross-host messages at its barriers.
// Shard clocks desynchronize once a run drains, so the round starts at the
// latest shard clock (cycle 0 on a fresh network) to keep each cross-host
// arrival in its destination shard's future.
func (tn *testNet) round(tb testing.TB, drive sim.DeliverFunc, hosts ...int) {
	tb.Helper()
	var at sim.Time
	for _, e := range tn.cl.Engines() {
		at = max(at, e.Now())
	}
	for _, h := range hosts {
		tn.cl.Engine(h).ScheduleDeliverAt(at, drive, uint64(h), nil)
	}
	tn.run(tb)
}

func TestConfigValidate(t *testing.T) {
	if err := CXLConfig().Validate(); err != nil {
		t.Fatalf("CXL config invalid: %v", err)
	}
	if err := UPIConfig().Validate(); err != nil {
		t.Fatalf("UPI config invalid: %v", err)
	}
	bad := CXLConfig()
	bad.Hosts = 0
	if bad.Validate() == nil {
		t.Fatal("Hosts=0 should be invalid")
	}
	bad = CXLConfig()
	bad.TilesPerHost = 7 // not divisible by MeshCols=4
	if bad.Validate() == nil {
		t.Fatal("non-rectangular mesh should be invalid")
	}
	bad = CXLConfig()
	bad.PortTile = 99
	if bad.Validate() == nil {
		t.Fatal("PortTile out of range should be invalid")
	}
}

func TestMeshHops(t *testing.T) {
	c := testConfig() // 2x4 mesh
	cases := []struct {
		a, b, want int
	}{
		{0, 0, 0},
		{0, 1, 1},
		{0, 3, 3},
		{0, 4, 1}, // directly below
		{0, 7, 4}, // opposite corner: 3 + 1
		{3, 4, 4}, // corner to corner of the other row
		{1, 6, 2}, // (1,0) -> (2,1)
	}
	for _, tc := range cases {
		if got := c.meshHops(tc.a, tc.b); got != tc.want {
			t.Errorf("meshHops(%d,%d) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestMeshHopsSymmetric(t *testing.T) {
	c := testConfig()
	f := func(a, b uint8) bool {
		x, y := int(a)%c.TilesPerHost, int(b)%c.TilesPerHost
		return c.meshHops(x, y) == c.meshHops(y, x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntraHostLatency(t *testing.T) {
	n := newTestNet(testConfig(), 1)
	// tile 0 -> tile 3: 3 hops x 10 cycles.
	if got := n.Latency(CoreID(0, 0), DirID(0, 3)); got != 30 {
		t.Fatalf("intra latency = %d, want 30", got)
	}
	// co-located core and dir: 0 cycles network latency.
	if got := n.Latency(CoreID(2, 5), DirID(2, 5)); got != 0 {
		t.Fatalf("co-located latency = %d, want 0", got)
	}
}

func TestInterHostLatency(t *testing.T) {
	n := newTestNet(testConfig(), 1)
	// core h0.t0 -> dir h1.t0, PortTile=0: 0 mesh hops + 150ns = 300 cycles.
	if got := n.Latency(CoreID(0, 0), DirID(1, 0)); got != 300 {
		t.Fatalf("inter latency = %d, want 300", got)
	}
	// with mesh hops on both sides: t3 -> port(0) = 3 hops, port -> t4 = 1 hop.
	if got := n.Latency(CoreID(0, 3), DirID(1, 4)); got != 300+40 {
		t.Fatalf("inter latency with hops = %d, want 340", got)
	}
}

func TestSendDeliversWithLatencyAndSerialization(t *testing.T) {
	n := newTestNet(testConfig(), 1)
	var arrived sim.Time
	var gotSrc NodeID
	var gotPayload any
	n.Register(DirID(1, 0), func(src NodeID, p any) {
		arrived = n.now(1)
		gotSrc = src
		gotPayload = p
	})
	n.round(t, func(uint64, any) {
		n.Send(CoreID(0, 0), DirID(1, 0), stats.ClassRelaxedData, 80, "hello")
	}, 0)
	// 300 cycles latency + ceil(80/32)=3 cycles serialization.
	if arrived != 303 {
		t.Fatalf("arrived at %d, want 303", arrived)
	}
	if gotSrc != CoreID(0, 0) || gotPayload != "hello" {
		t.Fatalf("delivery src=%v payload=%v", gotSrc, gotPayload)
	}
	if got := n.traffics[0].TotalInter(); got != 80 {
		t.Fatalf("inter traffic = %d, want 80", got)
	}
}

func TestSendIntraHostNoSerialization(t *testing.T) {
	n := newTestNet(testConfig(), 1)
	var arrived sim.Time
	n.Register(DirID(0, 1), func(NodeID, any) { arrived = n.now(0) })
	n.round(t, func(uint64, any) { n.Send(CoreID(0, 0), DirID(0, 1), stats.ClassAck, 16, nil) }, 0)
	if arrived != 10 {
		t.Fatalf("arrived at %d, want 10 (1 hop)", arrived)
	}
	if tr := n.traffics[0]; tr.TotalIntra() != 16 || tr.TotalInter() != 0 {
		t.Fatalf("traffic inter=%d intra=%d", tr.TotalInter(), tr.TotalIntra())
	}
}

func TestEgressQueueing(t *testing.T) {
	n := newTestNet(testConfig(), 1)
	var arrivals []sim.Time
	n.Register(DirID(1, 0), func(NodeID, any) { arrivals = append(arrivals, n.now(1)) })
	// Two back-to-back 320-byte messages: each serializes in 10 cycles, so
	// the second is delayed by the first's serialization.
	n.round(t, func(uint64, any) {
		n.Send(CoreID(0, 0), DirID(1, 0), stats.ClassRelaxedData, 320, nil)
		n.Send(CoreID(0, 0), DirID(1, 0), stats.ClassRelaxedData, 320, nil)
	}, 0)
	if len(arrivals) != 2 {
		t.Fatalf("got %d arrivals", len(arrivals))
	}
	if arrivals[0] != 310 {
		t.Fatalf("first arrival %d, want 310", arrivals[0])
	}
	if arrivals[1] != 320 {
		t.Fatalf("second arrival %d, want 320 (queued behind first)", arrivals[1])
	}
}

func TestDuplicateRegisterPanics(t *testing.T) {
	n := newTestNet(testConfig(), 1)
	n.Register(CoreID(0, 0), func(NodeID, any) {})
	defer func() {
		if recover() == nil {
			t.Error("duplicate Register did not panic")
		}
	}()
	n.Register(CoreID(0, 0), func(NodeID, any) {})
}

func TestSendToUnregisteredPanics(t *testing.T) {
	n := newTestNet(testConfig(), 1)
	defer func() {
		if recover() == nil {
			t.Error("Send to unregistered node did not panic")
		}
	}()
	n.Send(CoreID(0, 0), DirID(0, 1), stats.ClassAck, 16, nil)
}

func TestJitterBoundedAndDeterministic(t *testing.T) {
	run := func(seed int64) []sim.Time {
		cfg := testConfig()
		cfg.JitterCycles = 8
		n := newTestNet(cfg, seed)
		var arrivals []sim.Time
		n.Register(DirID(0, 1), func(NodeID, any) { arrivals = append(arrivals, n.now(0)) })
		n.round(t, func(uint64, any) {
			for i := 0; i < 50; i++ {
				n.Send(CoreID(0, 0), DirID(0, 1), stats.ClassAck, 16, nil)
			}
		}, 0)
		return arrivals
	}
	a := run(3)
	for _, at := range a {
		if at < 10 || at > 18 {
			t.Fatalf("arrival %d outside [10,18]", at)
		}
	}
	b := run(3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("jitter not deterministic for fixed seed")
		}
	}
}

func TestLocalDir(t *testing.T) {
	d := LocalDir(CoreID(3, 5))
	if d != DirID(3, 5) {
		t.Fatalf("LocalDir = %v", d)
	}
}

func TestUPIFasterThanCXL(t *testing.T) {
	cxl := newTestNet(testConfig(), 1)
	upiCfg := UPIConfig()
	upiCfg.JitterCycles = 0
	upi := newTestNet(upiCfg, 1)
	c := cxl.Latency(CoreID(0, 0), DirID(1, 0))
	u := upi.Latency(CoreID(0, 0), DirID(1, 0))
	if u >= c {
		t.Fatalf("UPI latency %d should be < CXL %d", u, c)
	}
}

func TestRingTopologyLatency(t *testing.T) {
	cfg := testConfig()
	cfg.Topology = Ring
	n := newTestNet(cfg, 1)
	// Adjacent hosts: 1 link.
	if got := n.Latency(CoreID(0, 0), DirID(1, 0)); got != 300 {
		t.Fatalf("ring adjacent = %d, want 300", got)
	}
	// Opposite side of an 8-ring: 4 links.
	if got := n.Latency(CoreID(0, 0), DirID(4, 0)); got != 1200 {
		t.Fatalf("ring opposite = %d, want 1200", got)
	}
	// Wrap-around: host 7 is 1 link from host 0.
	if got := n.Latency(CoreID(0, 0), DirID(7, 0)); got != 300 {
		t.Fatalf("ring wrap = %d, want 300", got)
	}
	if Ring.String() != "ring" || Switch.String() != "switch" {
		t.Fatal("topology names")
	}
}

func TestRingSlowerOnAverageThanSwitch(t *testing.T) {
	sw := newTestNet(testConfig(), 1)
	rcfg := testConfig()
	rcfg.Topology = Ring
	rg := newTestNet(rcfg, 1)
	var swSum, rgSum sim.Time
	for d := 1; d < 8; d++ {
		swSum += sw.Latency(CoreID(0, 0), DirID(d, 0))
		rgSum += rg.Latency(CoreID(0, 0), DirID(d, 0))
	}
	if rgSum <= swSum {
		t.Fatalf("ring total %d should exceed switch total %d", rgSum, swSum)
	}
}

func TestSendRejectsNonPositiveSize(t *testing.T) {
	n := newTestNet(testConfig(), 1)
	n.Register(DirID(0, 1), func(NodeID, any) {})
	defer func() {
		if recover() == nil {
			t.Error("zero-size message accepted")
		}
	}()
	n.Send(CoreID(0, 0), DirID(0, 1), stats.ClassAck, 0, nil)
}

func TestSingleRowMesh(t *testing.T) {
	cfg := testConfig()
	cfg.TilesPerHost = 4
	cfg.MeshCols = 4 // 1x4 mesh
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := cfg.meshHops(0, 3); got != 3 {
		t.Fatalf("1x4 mesh hops(0,3) = %d, want 3", got)
	}
}

func TestPortTilePlacementMatters(t *testing.T) {
	near := testConfig() // port at tile 0
	far := testConfig()
	far.PortTile = 7
	a := newTestNet(near, 1).Latency(CoreID(0, 0), DirID(1, 0))
	b := newTestNet(far, 1).Latency(CoreID(0, 0), DirID(1, 0))
	// With the port at the opposite corner, both sides add mesh hops.
	if b <= a {
		t.Fatalf("far port latency %d should exceed near port %d", b, a)
	}
}

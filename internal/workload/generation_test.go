package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"slices"
	"testing"

	"cord/internal/noc"
	"cord/internal/proto"
)

// digestSeeds are the pattern seeds the generation oracle pins.
var digestSeeds = []int64{0, 1, 97}

// digestPatterns is the oracle's workload set: every Table-2 app, the §5.3
// micro-benchmark, the ATA stressor, and one multi-rank-per-host pattern.
func digestPatterns() []Pattern {
	ps := Apps()
	ps = append(ps, Micro(8, 1024, 3, 20), ATA(8, 40))
	pad, _ := App("PAD")
	pad.Name, pad.RanksPerHost = "PAD/rph2", 2
	return append(ps, pad)
}

// programsDigest hashes the generated programs: for every rank in core
// order, its core ID and op count, then every op's kind, ord, addr, size,
// cycles and value.
func programsDigest(cores []noc.NodeID, progs []proto.Program) string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for r, prog := range progs {
		put(uint64(cores[r].Host))
		put(uint64(cores[r].Tile))
		put(uint64(len(prog)))
		for _, op := range prog {
			put(uint64(op.Kind))
			put(uint64(op.Ord))
			put(uint64(op.Addr))
			put(uint64(op.Size))
			put(uint64(op.Cycles))
			put(op.Value)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// programDigests pins the generator's output op for op. The table was
// recorded before the round builder was split into its two drains; any
// change to an op stream changes every simulated result downstream, so an
// entry may only change together with a deliberate, documented workload
// change.
var programDigests = map[string]string{
	"PR/seed0":                 "64755fc202e8c4a78220388bbfd8f2c6fd80742edc0657fbc6b6b2e459a753a8",
	"PR/seed1":                 "64755fc202e8c4a78220388bbfd8f2c6fd80742edc0657fbc6b6b2e459a753a8",
	"PR/seed97":                "64755fc202e8c4a78220388bbfd8f2c6fd80742edc0657fbc6b6b2e459a753a8",
	"SSSP/seed0":               "9682b1fc350d8400afae757158c139966cfedc5eea1738be19a6c289e46b7c24",
	"SSSP/seed1":               "9682b1fc350d8400afae757158c139966cfedc5eea1738be19a6c289e46b7c24",
	"SSSP/seed97":              "9682b1fc350d8400afae757158c139966cfedc5eea1738be19a6c289e46b7c24",
	"PAD/seed0":                "02e3dd15b9a33cac40b6ca803794e870a8f11848950b3da20f8283143c891717",
	"PAD/seed1":                "02e3dd15b9a33cac40b6ca803794e870a8f11848950b3da20f8283143c891717",
	"PAD/seed97":               "02e3dd15b9a33cac40b6ca803794e870a8f11848950b3da20f8283143c891717",
	"TQH/seed0":                "2f5cafb4a2811f3b8081fa59155bdf928836fc4f92c952d49b9e905a5c5e1ed1",
	"TQH/seed1":                "0ded3da2e4badfad5e95606d7b2544c150296cf87776ebf080e711c209825e1f",
	"TQH/seed97":               "f66af5b535d2f6322d732ad5a7b5ea4e859fd65ac6a1a3fa72d7941cbdf3a864",
	"HSTI/seed0":               "596e1e5dfcafb2a7abe1706641cbeb872e76336e03cb2724ea988111161b73b9",
	"HSTI/seed1":               "596e1e5dfcafb2a7abe1706641cbeb872e76336e03cb2724ea988111161b73b9",
	"HSTI/seed97":              "596e1e5dfcafb2a7abe1706641cbeb872e76336e03cb2724ea988111161b73b9",
	"TRNS/seed0":               "a7964b7383feb559e830e12a67e9ac5eef6f5354b47263c4b8a577785be1a23e",
	"TRNS/seed1":               "a7964b7383feb559e830e12a67e9ac5eef6f5354b47263c4b8a577785be1a23e",
	"TRNS/seed97":              "a7964b7383feb559e830e12a67e9ac5eef6f5354b47263c4b8a577785be1a23e",
	"MOCFE/seed0":              "d788aa1e9ae528d6fd2c203c2337dfee8cbdffed63aaa403139d9e953142f69d",
	"MOCFE/seed1":              "28ace63338cd0607efb54aad659b5a891606dbce602cc0e87402ab696b626d3c",
	"MOCFE/seed97":             "a7daf9e4e54859e577a951cfde8e77e03b32722793480e8340368a3e366fd2c9",
	"CMC-2D/seed0":             "8193eb21e010f82a62cb44e8d5007a243a640374e188fe5cb38234c0292a2bd4",
	"CMC-2D/seed1":             "62cb65b3b10106e6df8c37dae7fefb7255e8a52bcd97acc45c4bdfe42a4fb435",
	"CMC-2D/seed97":            "0f5b6011d7b23d67b0f70b478462cb398a25be2b1a381010fafa7f9e05a773dd",
	"BigFFT/seed0":             "95a0605af0f341d23dde7fe35faaf6e19dccdfb529a4f78d7567df91474b6366",
	"BigFFT/seed1":             "95a0605af0f341d23dde7fe35faaf6e19dccdfb529a4f78d7567df91474b6366",
	"BigFFT/seed97":            "95a0605af0f341d23dde7fe35faaf6e19dccdfb529a4f78d7567df91474b6366",
	"CR/seed0":                 "efe39221aff3a4b0d005e4e5257c0805e87da575b1a488477e4f2da622e2f09f",
	"CR/seed1":                 "f051765713aa003a82b5e496af37fe79852920b0c2769c2b37c835d537ac113c",
	"CR/seed97":                "0e39c88b38876bb0193d953c3ffeab89f0d62537b96c973364d92b664adfe7de",
	"micro/s8/y1024/f3/seed0":  "2730181be6e9078eb3e8873b2ad81879fa9d4c4b2abace85966a3af15af640c7",
	"micro/s8/y1024/f3/seed1":  "2730181be6e9078eb3e8873b2ad81879fa9d4c4b2abace85966a3af15af640c7",
	"micro/s8/y1024/f3/seed97": "2730181be6e9078eb3e8873b2ad81879fa9d4c4b2abace85966a3af15af640c7",
	"ATA/seed0":                "d3b75bd8b9bf311fa57be8413c0a48805a6fde1015c8641a492cf984ec0d5e0f",
	"ATA/seed1":                "d3b75bd8b9bf311fa57be8413c0a48805a6fde1015c8641a492cf984ec0d5e0f",
	"ATA/seed97":               "d3b75bd8b9bf311fa57be8413c0a48805a6fde1015c8641a492cf984ec0d5e0f",
	"PAD/rph2/seed0":           "4ee4d90c1db58a6f51fd6906742612701e7a266f83fe4c8d8447deb147edc2ff",
	"PAD/rph2/seed1":           "4ee4d90c1db58a6f51fd6906742612701e7a266f83fe4c8d8447deb147edc2ff",
	"PAD/rph2/seed97":          "4ee4d90c1db58a6f51fd6906742612701e7a266f83fe4c8d8447deb147edc2ff",
}

// TestProgramsDigestOracle is the generation oracle: Programs output for
// every pattern in digestPatterns at every digestSeeds seed must hash to its
// pinned digest.
func TestProgramsDigestOracle(t *testing.T) {
	for _, p := range digestPatterns() {
		for _, seed := range digestSeeds {
			p.Seed = seed
			key := fmt.Sprintf("%s/seed%d", p.Name, seed)
			cores, progs, err := p.Programs(nc())
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			got := programsDigest(cores, progs)
			if want := programDigests[key]; got != want {
				t.Errorf("%s: digest %s, want %s\n\t%q: %q,", key, got, want, key, got)
			}
		}
	}
}

// drain pulls every op out of src.
func drain(src proto.OpSource) proto.Program {
	var prog proto.Program
	for {
		op, ok := src.Next(0)
		if !ok {
			return prog
		}
		prog = append(prog, op)
	}
}

// TestSourcesMatchPrograms checks the two drains of the round builder
// against each other: every rank's drained source equals its program op for
// op, on the same cores, and stays ended once it has ended.
func TestSourcesMatchPrograms(t *testing.T) {
	for _, p := range digestPatterns() {
		for _, seed := range digestSeeds {
			p.Seed = seed
			key := fmt.Sprintf("%s/seed%d", p.Name, seed)
			cores, progs, err := p.Programs(nc())
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			scores, srcs, err := p.Sources(nc())
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if !slices.Equal(cores, scores) {
				t.Fatalf("%s: source cores %v, program cores %v", key, scores, cores)
			}
			for r, src := range srcs {
				if got := drain(src); !slices.Equal(got, progs[r]) {
					t.Fatalf("%s rank %d: drained source (%d ops) differs from program (%d ops)",
						key, r, len(got), len(progs[r]))
				}
				if _, ok := src.Next(0); ok {
					t.Fatalf("%s rank %d: ended source yielded another op", key, r)
				}
			}
		}
	}
}

// TestSourcesRejectLikePrograms checks that Sources runs Programs' up-front
// checks and returns the same errors.
func TestSourcesRejectLikePrograms(t *testing.T) {
	bad := ATA(8, 4)
	bad.Rounds = 0
	small := nc()
	small.Hosts = 4
	multi, _ := App("PAD")
	multi.RanksPerHost = 8
	narrow := nc()
	narrow.TilesPerHost = 4
	for _, c := range []struct {
		p  Pattern
		nc noc.Config
	}{{bad, nc()}, {ATA(8, 4), small}, {multi, narrow}} {
		_, _, perr := c.p.Programs(c.nc)
		_, _, serr := c.p.Sources(c.nc)
		if perr == nil || serr == nil || perr.Error() != serr.Error() {
			t.Errorf("%s: Programs error %v, Sources error %v", c.p.Name, perr, serr)
		}
	}
}

// TestProgramsExactSize checks that every program is built into exactly its
// own length: no growth slack is left behind.
func TestProgramsExactSize(t *testing.T) {
	for _, p := range digestPatterns() {
		_, progs, err := p.Programs(nc())
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		for r, prog := range progs {
			if cap(prog) != len(prog) {
				t.Errorf("%s rank %d: cap %d, len %d", p.Name, r, cap(prog), len(prog))
			}
		}
	}
}

// TestProgramsAllocs bounds Programs' allocations by the rank count plus a
// constant (the per-call plan, sizes, PRNG and result slices), so a return
// to append growth, which allocates in proportion to the op count, fails.
func TestProgramsAllocs(t *testing.T) {
	p, _ := App("CMC-2D")
	_, progs, err := p.Programs(nc())
	if err != nil {
		t.Fatal(err)
	}
	const constant = 8
	allocs := testing.AllocsPerRun(5, func() {
		if _, _, err := p.Programs(nc()); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(len(progs) + constant); allocs > limit {
		t.Fatalf("Programs allocated %.0f times for %d ranks, want <= %.0f", allocs, len(progs), limit)
	}
}

// BenchmarkProgramsPaperApps generates the Table-2 suite's programs and
// reports the cost per generated op.
func BenchmarkProgramsPaperApps(b *testing.B) {
	apps := Apps()
	ops := 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, p := range apps {
			_, progs, err := p.Programs(nc())
			if err != nil {
				b.Fatal(err)
			}
			for _, prog := range progs {
				ops += len(prog)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ops), "ns/generated-op")
}

package workload

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/isa"
)

// The stream goldens pin the SHA-256 of every profile's instruction
// stream, for two seeds, as a sampled run consumes it: per 50k unit of the
// default sampling plan, 48,600 functional-warming instructions followed
// by 1,400 detailed ones (a 400-instruction warm-up and a 1,000-instruction
// measured window). Any change to a generator draw — in the Zipf sampler,
// a region walk, or the warming path — changes a digest. Regenerate only
// for a deliberate change to the workload model:
//
//	go test ./internal/workload -run TestStreamGoldens -update-streams
var updateStreams = flag.Bool("update-streams", false,
	"rewrite the stream goldens from the current generator")

const (
	streamBudget = 300_000
	streamPeriod = 50_000
	streamDetail = 1_000 + 400
	streamWarm   = streamPeriod - streamDetail
)

var streamGoldenPath = filepath.Join("testdata", "streams.golden")

// goldenProfiles is every profile a run can name: the eight paper
// benchmarks and the phase-shifting workloads.
func goldenProfiles() []Profile {
	return append(Profiles(), PhaseProfiles()...)
}

// instBytes is the size of one instruction's hashed encoding.
const instBytes = 31

// hashInst feeds every field of in to h in a fixed little-endian layout.
func hashInst(h hash.Hash, buf *[instBytes]byte, in *isa.Inst) {
	b := buf[:]
	binary.LittleEndian.PutUint64(b[0:], in.PC)
	b[8] = byte(in.Op)
	binary.LittleEndian.PutUint16(b[9:], in.SrcDist1)
	binary.LittleEndian.PutUint16(b[11:], in.SrcDist2)
	binary.LittleEndian.PutUint64(b[13:], in.Addr)
	b[21] = in.Size
	b[22] = 0
	if in.Taken {
		b[22] = 1
	}
	binary.LittleEndian.PutUint64(b[23:], in.Target)
	h.Write(b)
}

// warmFunc pulls n functional-warming instructions from g into h.
type warmFunc func(t *testing.T, g *Generator, h hash.Hash, n int)

// warmOneByOne warms through NextWarm, one instruction per call.
func warmOneByOne(t *testing.T, g *Generator, h hash.Hash, n int) {
	var buf [instBytes]byte
	for i := 0; i < n; i++ {
		in, ok := g.NextWarm()
		if !ok {
			t.Fatal("stream ended")
		}
		hashInst(h, &buf, &in)
	}
}

// warmBatches warms through FillWarm in batches of size n; the last batch
// of each stretch is short.
func warmBatches(size int) warmFunc {
	return func(t *testing.T, g *Generator, h hash.Hash, n int) {
		buf := make([]isa.Inst, size)
		var enc [instBytes]byte
		for n > 0 {
			b := buf[:min(n, size)]
			if got := g.FillWarm(b); got != len(b) {
				t.Fatalf("FillWarm wrote %d of %d", got, len(b))
			}
			for i := range b {
				hashInst(h, &enc, &b[i])
			}
			n -= len(b)
		}
	}
}

// streamDigest hashes the sampled-plan stream of profile p under seed.
func streamDigest(t *testing.T, p Profile, seed int64, warm warmFunc) string {
	g := MustNew(p, seed)
	h := sha256.New()
	var buf [instBytes]byte
	for done := 0; done < streamBudget; done += streamPeriod {
		warm(t, g, h, streamWarm)
		for i := 0; i < streamDetail; i++ {
			in, ok := g.Next()
			if !ok {
				t.Fatal("stream ended")
			}
			hashInst(h, &buf, &in)
		}
	}
	if g.Count() != streamBudget {
		t.Fatalf("generator emitted %d instructions, want %d", g.Count(), streamBudget)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func streamKey(p Profile, seed int64) string { return fmt.Sprintf("%s/seed%d", p.Name, seed) }

func readStreamGoldens(t *testing.T) map[string]string {
	f, err := os.Open(streamGoldenPath)
	if err != nil {
		t.Fatalf("missing stream goldens (run with -update-streams): %v", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), " "); ok {
			want[k] = v
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// checkStreamGoldens compares every profile × seed digest, pulled through
// warm, against the committed goldens.
func checkStreamGoldens(t *testing.T, warm warmFunc) {
	want := readStreamGoldens(t)
	for _, p := range goldenProfiles() {
		for _, seed := range []int64{1, 2} {
			key := streamKey(p, seed)
			t.Run(key, func(t *testing.T) {
				t.Parallel()
				if got := streamDigest(t, p, seed, warm); got != want[key] {
					t.Errorf("stream digest %s, golden %q", got, want[key])
				}
			})
		}
	}
}

func TestStreamGoldens(t *testing.T) {
	if *updateStreams {
		var sb strings.Builder
		for _, p := range goldenProfiles() {
			for _, seed := range []int64{1, 2} {
				fmt.Fprintf(&sb, "%s %s\n", streamKey(p, seed), streamDigest(t, p, seed, warmOneByOne))
			}
		}
		if err := os.MkdirAll(filepath.Dir(streamGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(streamGoldenPath, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	checkStreamGoldens(t, warmOneByOne)
}

// TestStreamGoldensFillWarm pulls every warming stretch through FillWarm
// in batches of several sizes: batching must not change a single draw.
func TestStreamGoldensFillWarm(t *testing.T) {
	for _, size := range []int{1, 7, 256, 4096} {
		t.Run(fmt.Sprint(size), func(t *testing.T) { checkStreamGoldens(t, warmBatches(size)) })
	}
}

// TestFillWarmAllocFree pins both streams' steady state at zero
// allocations: the warming stream filled in batches and the detailed
// stream drawn one instruction at a time.
func TestFillWarmAllocFree(t *testing.T) {
	buf := make([]isa.Inst, 256)
	for _, tc := range []struct {
		name string
		pull func(g *Generator)
	}{
		{"FillWarm", func(g *Generator) { g.FillWarm(buf) }},
		{"Next", func(g *Generator) {
			for range buf {
				if _, ok := g.Next(); !ok {
					t.Fatal("stream ended")
				}
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := MustNew(Gcc(), 1)
			tc.pull(g)
			if got := testing.AllocsPerRun(100, func() { tc.pull(g) }); got != 0 {
				t.Errorf("steady-state %s of %d instructions allocates %.0f objects, want 0", tc.name, len(buf), got)
			}
		})
	}
}

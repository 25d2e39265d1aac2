package experiments

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/runner"
)

// fastOpts keeps experiment smoke tests quick.
var fastOpts = Options{Instructions: 30_000, Seed: 1}

func TestRegistryComplete(t *testing.T) {
	ids := IDs()
	want := []string{
		"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
		"fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
		"fig16", "fig17", "faultmodels", "sensitivity", "victims", "swhints",
		"rcache", "scrub", "vulnerability", "mttf", "decaypred", "prefetch",
		"adaptive",
	}
	have := map[string]bool{}
	for _, id := range ids {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("missing experiment %q", id)
		}
	}
	if !Valid("fig1") {
		t.Error("fig1 should be a valid experiment id")
	}
	if Valid("nope") {
		t.Error("unknown id should be invalid")
	}
	if _, err := Run(context.Background(), "nope", Options{}); err == nil {
		t.Error("Run with an unknown id should error")
	}
}

func TestResultRendering(t *testing.T) {
	r := &Result{
		ID: "figX", Title: "demo", XLabel: "bench",
		XTicks: []string{"a", "b"},
		Series: []Series{{Label: "s1", Values: []float64{1, 2}}},
		Notes:  "note",
	}
	table := r.Table()
	for _, want := range []string{"figX", "demo", "note", "s1", "1.0000", "2.0000"} {
		if !strings.Contains(table, want) {
			t.Errorf("Table() missing %q:\n%s", want, table)
		}
	}
	csv := r.CSV()
	if !strings.HasPrefix(csv, "bench,a,b\n") {
		t.Errorf("CSV header wrong: %s", csv)
	}
	if !strings.Contains(csv, "s1,1,2") {
		t.Errorf("CSV row wrong: %s", csv)
	}
}

func TestChartRendering(t *testing.T) {
	r := &Result{
		ID: "figX", Title: "demo", XLabel: "bench",
		XTicks: []string{"a", "b"},
		Series: []Series{{Label: "s1", Values: []float64{1, 2}}},
	}
	chart := r.Chart()
	for _, want := range []string{"figX", "a", "b", "s1", "####", "2.0000"} {
		if !strings.Contains(chart, want) {
			t.Errorf("Chart() missing %q:\n%s", want, chart)
		}
	}
	empty := &Result{ID: "e", XTicks: []string{"x"}, Series: []Series{{Label: "s", Values: []float64{0}}}}
	if empty.Chart() == "" {
		t.Error("all-zero chart should still render")
	}
}

func TestMultiSeedAverages(t *testing.T) {
	// A synthetic driver returning the seed as its single value: the
	// aggregate must be the mean.
	d := func(ctx context.Context, o Options) (*Result, error) {
		return &Result{
			ID: "seedtest", XTicks: []string{"x"},
			Series: []Series{{Label: "v", Values: []float64{float64(o.Seed)}}},
		}, nil
	}
	res, err := multiSeed(context.Background(), d, Options{}, []int64{2, 4, 6})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Series[0].Values[0]; got != 4 {
		t.Errorf("mean = %g, want 4", got)
	}
	if !strings.Contains(res.Notes, "3 seeds") {
		t.Errorf("notes should mention seed count: %q", res.Notes)
	}
	// Empty seed list falls through to a single run.
	res2, err := multiSeed(context.Background(), d, Options{Seed: 9}, nil)
	if err != nil || res2.Series[0].Values[0] != 9 {
		t.Errorf("nil seeds: %v %v", res2, err)
	}
	// The exported MultiSeed validates the id before running anything.
	if _, err := MultiSeed(context.Background(), "nope", Options{}, nil); err == nil {
		t.Error("MultiSeed with an unknown id should error")
	}
}

// TestMultiSeedRejectsBadSeedLists: seed 0 means "unset" to a run, so a
// list holding it, like a list with a repeat, would average one
// realization twice under a "mean of N seeds" label. Both are rejected,
// naming the seed, before anything is submitted.
func TestMultiSeedRejectsBadSeedLists(t *testing.T) {
	rn := runner.New(runner.Options{Workers: 1})
	for _, tc := range []struct {
		seeds []int64
		want  string
	}{
		{[]int64{0, 1}, "seed 0"},
		{[]int64{1, 2, 1}, "seed 1 repeated"},
	} {
		_, err := MultiSeed(context.Background(), "fig1", Options{Instructions: 20_000, Runner: rn}, tc.seeds)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("seeds %v: error %v, want one naming %q", tc.seeds, err, tc.want)
		}
	}
	if n := rn.Progress().Snapshot().Submitted; n != 0 {
		t.Errorf("%d runs submitted for rejected seed lists, want 0", n)
	}
}

func TestFig1MultiAttemptNotWorse(t *testing.T) {
	res, err := fig1(context.Background(), fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 2 || len(res.Series[0].Values) != 8 {
		t.Fatalf("unexpected shape: %+v", res.Series)
	}
	var singleSum, multiSum float64
	for i := range res.Series[0].Values {
		singleSum += res.Series[0].Values[i]
		multiSum += res.Series[1].Values[i]
	}
	if multiSum < singleSum*0.98 {
		t.Errorf("multi-attempt ability (%f) should not trail single (%f)", multiSum, singleSum)
	}
}

func TestFig4MissRatesOrdered(t *testing.T) {
	res, err := fig4(context.Background(), fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	// base <= 1 replica <= 2 replicas (summed across benchmarks).
	sum := func(s Series) (v float64) {
		for _, x := range s.Values {
			v += x
		}
		return
	}
	base, one, two := sum(res.Series[0]), sum(res.Series[1]), sum(res.Series[2])
	if one < base {
		t.Errorf("replication should not reduce misses: base %f one %f", base, one)
	}
	if two < one*0.98 {
		t.Errorf("two replicas should not miss less than one: %f vs %f", two, one)
	}
}

func TestFig7LSAboveS(t *testing.T) {
	res, err := fig7(context.Background(), fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Series[0].Values {
		ls, s := res.Series[0].Values[i], res.Series[1].Values[i]
		if ls+0.02 < s {
			t.Errorf("%s: LS loads-with-replica (%f) below S (%f)", res.XTicks[i], ls, s)
		}
	}
}

func TestFig9BasePIsUnity(t *testing.T) {
	res, err := fig9(context.Background(), Options{Instructions: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Series[0].Label != "BaseP" {
		t.Fatalf("first series should be BaseP, got %s", res.Series[0].Label)
	}
	for i, v := range res.Series[0].Values {
		if v != 1 {
			t.Errorf("BaseP normalized value %d = %f, want 1", i, v)
		}
	}
	// BaseECC must be above 1 everywhere.
	for i, v := range res.Series[1].Values {
		if v <= 1 {
			t.Errorf("BaseECC normalized value %s = %f, want > 1", res.XTicks[i], v)
		}
	}
	if len(res.Series) != 10 {
		t.Errorf("fig9 should carry 10 schemes, got %d", len(res.Series))
	}
	if res.XTicks[len(res.XTicks)-1] != "geomean" {
		t.Error("fig9 should append a geomean column")
	}
}

func TestFig10AbilityFallsWithWindow(t *testing.T) {
	res, err := fig10(context.Background(), fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	ability := res.Series[0].Values
	if ability[0] < ability[len(ability)-1] {
		t.Errorf("ability should not grow with window: %v", ability)
	}
	lwr := res.Series[1].Values
	if lwr[len(lwr)-1] < lwr[0]*0.7 {
		t.Errorf("loads-with-replica should be window-insensitive: %v", lwr)
	}
}

func TestFig14ICRBeatsBaseP(t *testing.T) {
	res, err := fig14(context.Background(), Options{Instructions: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	// At the highest error rate: BaseP > ICR-P-PS(S) >= ~BaseECC.
	basep := res.Series[0].Values[0]
	icr := res.Series[1].Values[0]
	if basep <= icr {
		t.Errorf("BaseP unrecoverable frac (%g) must exceed ICR (%g)", basep, icr)
	}
}

func TestFig16WriteThroughCostsMore(t *testing.T) {
	res, err := fig16(context.Background(), fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	// Energy ratio (series b) geomean > 1.
	b := res.Series[1].Values
	if b[len(b)-1] <= 1 {
		t.Errorf("write-through energy ratio should exceed 1, geomean %f", b[len(b)-1])
	}
}

func TestFig17Shapes(t *testing.T) {
	res, err := fig17(context.Background(), fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 3 {
		t.Fatalf("fig17 should have 3 series, got %d", len(res.Series))
	}
	// Energy at 10:30 (c) must be >= energy at 15:30 (b) for the spec-ECC
	// scheme relative to ICR: cheaper parity widens ICR's advantage.
	bG := res.Series[1].Values[len(res.Series[1].Values)-1]
	cG := res.Series[2].Values[len(res.Series[2].Values)-1]
	if cG < bG*0.99 {
		t.Errorf("ratio at 10:30 (%f) should not be below 15:30 (%f)", cG, bG)
	}
}

// TestAdaptiveBeatsBestStaticOnDrift pins this repo's headline adaptive
// claim at the committed budget (the EXPERIMENTS.md record): on the drift
// phase-shifting workload, the decay-driven ICR-ADAPT controller undercuts
// every static scheme — including both baselines — on the swept
// vulnerability + cycle-overhead + energy-overhead score. Drift's one-way
// regime flip (cache-resident mix to streaming) is exactly the case a
// static configuration cannot straddle: the relaxed static point keeps
// paying false-dead displacements in the streaming half, while the
// controller retreats to the conservative window and keeps the replication
// benefit without the churn.
func TestAdaptiveBeatsBestStaticOnDrift(t *testing.T) {
	res, err := adaptiveShootout(context.Background(), Options{Instructions: 480_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	di := -1
	for i, tick := range res.XTicks {
		if tick == "drift" {
			di = i
		}
	}
	if di < 0 {
		t.Fatalf("drift missing from ticks %v", res.XTicks)
	}
	bestStatic, bestName := math.Inf(1), ""
	adaptive := math.Inf(1)
	for _, s := range res.Series {
		v := s.Values[di]
		if strings.HasPrefix(s.Label, "ICR-ADAPT-") {
			if s.Label == "ICR-ADAPT-decay" {
				adaptive = v
			}
			continue
		}
		if v < bestStatic {
			bestStatic, bestName = v, s.Label
		}
	}
	if adaptive >= bestStatic {
		t.Errorf("ICR-ADAPT-decay drift score %.4f does not beat best static %s %.4f",
			adaptive, bestName, bestStatic)
	}
}

func TestSensitivityRuns(t *testing.T) {
	res, err := sensitivity(context.Background(), fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.XTicks) != 5 || len(res.Series) != 3 {
		t.Fatalf("unexpected shape: %d ticks, %d series", len(res.XTicks), len(res.Series))
	}
}

func TestVictimPoliciesRuns(t *testing.T) {
	res, err := victimPolicies(context.Background(), fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 8 {
		t.Fatalf("expected 8 series (4 policies x 2 metrics), got %d", len(res.Series))
	}
}

func TestSoftwareHintsTrimMissRate(t *testing.T) {
	res, err := softwareHints(context.Background(), fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	var blanket, hinted float64
	for i := range res.Series[0].Values {
		blanket += res.Series[0].Values[i]
		hinted += res.Series[1].Values[i]
	}
	if hinted > blanket*1.02 {
		t.Errorf("hinted miss rate (%f) should not exceed blanket (%f)", hinted, blanket)
	}
}

func TestRCacheComparison(t *testing.T) {
	res, err := rCache(context.Background(), Options{Instructions: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 5 {
		t.Fatalf("rcache should have 5 series, got %d", len(res.Series))
	}
	// Both approaches must cover a meaningful share of loads somewhere.
	var icrCov, rcCov float64
	for i := range res.Series[0].Values {
		icrCov += res.Series[0].Values[i]
		rcCov += res.Series[1].Values[i]
	}
	if icrCov == 0 || rcCov == 0 {
		t.Errorf("coverage missing: icr %f rc %f", icrCov, rcCov)
	}
}

func TestScrubReducesLoss(t *testing.T) {
	res, err := scrub(context.Background(), Options{Instructions: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	// BaseP: the fastest scrub (last tick) should not lose more than no
	// scrubbing (first tick).
	basep := res.Series[0].Values
	if basep[len(basep)-1] > basep[0] {
		t.Errorf("aggressive scrubbing should not increase loss: %v", basep)
	}
}

func TestVulnerabilityOrdering(t *testing.T) {
	res, err := vulnerability(context.Background(), Options{Instructions: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	sum := func(s Series) (v float64) {
		for _, x := range s.Values {
			v += x
		}
		return
	}
	basep, icrS, baseecc := sum(res.Series[0]), sum(res.Series[1]), sum(res.Series[3])
	if baseecc != 0 {
		t.Errorf("BaseECC vulnerability must be 0, got %f", baseecc)
	}
	if icrS >= basep {
		t.Errorf("ICR vulnerability (%f) must be below BaseP (%f)", icrS, basep)
	}
}

func TestDecayPredictorsRuns(t *testing.T) {
	res, err := decayPredictors(context.Background(), fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 6 {
		t.Fatalf("expected 6 series (3 variants x 2 metrics), got %d", len(res.Series))
	}
	// The adaptive predictor must achieve meaningful coverage without a
	// tuned window.
	var adaptiveLWR float64
	for _, v := range res.Series[4].Values {
		adaptiveLWR += v
	}
	if adaptiveLWR/8 < 0.3 {
		t.Errorf("adaptive coverage too low: %f", adaptiveLWR/8)
	}
}

func TestPrefetchHelpsBaseP(t *testing.T) {
	res, err := prefetch(context.Background(), fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	// BaseP+prefetch geomean should not be slower than BaseP by more
	// than noise (it usually wins on streaming benchmarks).
	g := func(i int) float64 {
		v := res.Series[i].Values
		return v[len(v)-1]
	}
	if g(1) > g(0)*1.03 {
		t.Errorf("prefetch slowed BaseP: %f vs %f", g(1), g(0))
	}
}

func TestMTTFProjection(t *testing.T) {
	res, err := mttf(context.Background(), Options{Instructions: 40_000})
	if err != nil {
		t.Fatal(err)
	}
	// BaseECC FIT must be 0 everywhere; BaseP positive somewhere.
	var basepSum, eccSum float64
	for i := range res.Series[0].Values {
		basepSum += res.Series[0].Values[i]
		eccSum += res.Series[3].Values[i]
	}
	if eccSum != 0 {
		t.Errorf("BaseECC FIT = %f, want 0", eccSum)
	}
	if basepSum <= 0 {
		t.Errorf("BaseP FIT should be positive, got %f", basepSum)
	}
}

func TestFaultModelsRuns(t *testing.T) {
	res, err := faultModels(context.Background(), fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.XTicks) != 4 {
		t.Fatalf("expected 4 models, got %d", len(res.XTicks))
	}
}

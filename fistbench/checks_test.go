package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"

	fistful "repro"
	"repro/internal/address"
	"repro/internal/cluster"
)

// wantCheck asserts that err is the named check's failure.
func wantCheck(t *testing.T, name string, err error) {
	t.Helper()
	if err == nil {
		t.Fatalf("check %s accepted a wrong result", name)
	}
	if got := failedCheck(err); got != name {
		t.Fatalf("got failure of check %q (%v), want %q", got, err, name)
	}
}

func ladder(labeled ...int) []fistful.H2Variant {
	var l []fistful.H2Variant
	for i, n := range labeled {
		l = append(l, fistful.H2Variant{Name: string(rune('a' + i)), Stats: cluster.ChangeStats{Labeled: n, FalsePositives: n / 10}})
	}
	return l
}

// TestChecksRejectWrongResults gives each check one deliberately wrong
// result and requires the failure to carry the check's name; the same
// check with the right result passes.
func TestChecksRejectWrongResults(t *testing.T) {
	h1 := canonical([]int32{0, 0, 1, 1, 2, 3})
	merged := canonical([]int32{0, 0, 1, 1, 1, 3}) // classes 1 and 2 merged

	addr := func(b byte) address.Address {
		var a address.Address
		a.Hash[0] = b
		return a
	}
	// A replay watching one address whose balance changes at every height.
	rp := &replay{
		index:    map[address.Address]int32{addr(1): 0},
		watch:    map[int32]int{0: 0},
		histFrom: 10,
		history:  [][]int64{{100}, {250}, {75}},
	}

	cases := []struct {
		name      string
		good, bad func() error
	}{
		{"h1_partition",
			func() error { return checkPartition("h1_partition", h1, h1) },
			func() error { return checkPartition("h1_partition", h1, merged) }},
		{"balances",
			func() error { return checkBalances([]int64{5, 7}, []int64{5, 7}) },
			func() error { return checkBalances([]int64{5, 7}, []int64{5, 8}) }},
		{"ladder_monotone",
			func() error { return checkLadder(ladder(500, 400, 300, 300, 200)) },
			func() error { return checkLadder(ladder(500, 400, 401, 300, 200)) }},
		{"blocks_visible",
			func() error { return checkVisible([]tipBlock{{height: 1, visible: time.Now()}}) },
			func() error { return checkVisible([]tipBlock{{height: 1, visible: time.Now()}, {height: 2}}) }},
		{"balance_answers",
			func() error {
				return checkBalanceAnswers(rp, []balanceAnswer{{addr: addr(1), height: 11, satoshis: 250}})
			},
			// The answer carries height 11 but the balance of height 10.
			func() error {
				return checkBalanceAnswers(rp, []balanceAnswer{{addr: addr(1), height: 11, satoshis: 100}})
			}},
		{"naive_coarsens_h1",
			func() error { return checkCoarsens("naive_coarsens_h1", h1, merged) },
			func() error { return checkCoarsens("naive_coarsens_h1", merged, h1) }},
		{"h1_purity",
			func() error {
				return checkPurity(h1, []int32{4, 4, -1, 5, 6, 7}, fistful.H1Result{Truth: cluster.GroundTruthMetrics{Purity: 1}})
			},
			func() error {
				return checkPurity(h1, []int32{4, 5, -1, 5, 6, 7}, fistful.H1Result{Truth: cluster.GroundTruthMetrics{Purity: 1}})
			}},
		{"figure2_shares",
			func() error { return checkFigure2([][]float64{{60, 10}, {40, 20}}) },
			func() error { return checkFigure2([][]float64{{60, 10}, {41, 20}}) }},
		{"table2_bounds",
			func() error {
				return checkTable2(fistful.Table2Result{HopsPerChain: [3]int{100, 99, 3}, ExchangePeels: 2, RecoveredPeels: 5, TotalPeels: 9}, 100)
			},
			func() error {
				return checkTable2(fistful.Table2Result{HopsPerChain: [3]int{100, 99, 3}, ExchangePeels: 6, RecoveredPeels: 5, TotalPeels: 9}, 100)
			}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.good(); err != nil {
				t.Fatalf("check rejected the right result: %v", err)
			}
			wantCheck(t, c.name, c.bad())
		})
	}
}

// TestBigFourAcceptsEitherTieBreak pins the super-cluster check: with two
// equally large shared sets, either is accepted and any other set is not.
func TestBigFourAcceptsEitherTieBreak(t *testing.T) {
	labels := []int32{0, 0, 1, 1, 2}
	names := []string{"Mt Gox", "Silk Road", "Bitpay", "Mt Gox", "Instawallet"}
	sets := bigFourSets(labels, func(i int) string { return names[i] })
	if len(sets) != 2 {
		t.Fatalf("got sets %v, want two tied sets", sets)
	}
	for _, got := range [][]string{{"Mt Gox", "Silk Road"}, {"Bitpay", "Mt Gox"}} {
		if err := checkBigFour("naive_super_cluster", got, sets); err != nil {
			t.Errorf("tie-break %v rejected: %v", got, err)
		}
	}
	wantCheck(t, "naive_super_cluster", checkBigFour("naive_super_cluster", []string{"Instawallet", "Mt Gox"}, sets))
	wantCheck(t, "refined_super_cluster", checkBigFour("refined_super_cluster", []string{"Mt Gox", "Silk Road"}, nil))
}

// TestBatchChecksOnSmallEconomy runs the batch checks against a real
// pipeline at the small configuration, then against the same results with
// one balance and the H1 partition falsified.
func TestBatchChecksOnSmallEconomy(t *testing.T) {
	ctx := context.Background()
	cfg := fistful.SmallConfig()
	p, err := fistful.New(ctx, cfg, fistful.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rp, err := replayChain(p.World.Chain.Blocks(), -1, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runExperiments(p)
	if err != nil {
		t.Fatal(err)
	}
	d, err := digestPipeline(rp, p, res, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkBatch(rp, cfg, []passDigest{d, d}); err != nil {
		t.Fatalf("checks reject the program's own results: %v", err)
	}

	bad := d
	bad.balances = append([]int64(nil), d.balances...)
	bad.balances[len(bad.balances)/2]++
	wantCheck(t, "balances", checkBatch(rp, cfg, []passDigest{bad}))

	bad = d
	bad.h1 = append([]int32(nil), d.h1...)
	for i, c := range bad.h1 {
		if c == 1 {
			bad.h1[i] = 0 // merge H1 classes 0 and 1
		}
	}
	wantCheck(t, "h1_partition", checkBatch(rp, cfg, []passDigest{bad}))

	other := d
	other.balHash[0]++
	wantCheck(t, "passes_equal", checkBatch(rp, cfg, []passDigest{d, other}))
}

// TestBenchmarkJSONMatchesDeclaredMetrics keeps BENCHMARK.json's metric
// lists in step with what the benchmark prints.
func TestBenchmarkJSONMatchesDeclaredMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	match := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s in %s, the benchmark prints %s in %s",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	match("end_to_end", bf.EndToEnd, endToEnd)
	match("per_layer", bf.PerLayer, perLayer)
	for _, w := range bf.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %s, which the benchmark lacks", w.Name)
		}
	}
}

// TestPyQuartiles pins the quartiles to Python's statistics.quantiles(n=4).
func TestPyQuartiles(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := pyQuartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	if m := median(xs); m != 5.5 {
		t.Errorf("median of 1..10 = %v, want 5.5", m)
	}
}

package main

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	fistful "repro"
	"repro/internal/address"
)

// checkError is a failed check: the check's name and what it found.
type checkError struct {
	check  string
	detail string
}

func (e *checkError) Error() string { return "check " + e.check + " failed: " + e.detail }

func fail(check, format string, args ...any) error {
	return &checkError{check: check, detail: fmt.Sprintf(format, args...)}
}

// failedCheck returns the name of the check err reports, "" if none.
func failedCheck(err error) string {
	var ce *checkError
	if errors.As(err, &ce) {
		return ce.check
	}
	return ""
}

// checkCounts compares the program's graph dimensions with the replay's.
func checkCounts(rp *replay, numTxs, numAddrs int, height int64) error {
	if numTxs != rp.numTxs || numAddrs != len(rp.addrs) || height != rp.height {
		return fail("counts", "graph has %d txs, %d addresses, height %d; replay has %d, %d, %d",
			numTxs, numAddrs, height, rp.numTxs, len(rp.addrs), rp.height)
	}
	return nil
}

// checkPartition requires two canonical partitions (see canonical) to be
// equal.
func checkPartition(check string, want, got []int32) error {
	if len(want) != len(got) {
		return fail(check, "%d addresses partitioned, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			return fail(check, "address #%d is in class %d, want class %d", i, got[i], want[i])
		}
	}
	return nil
}

// checkBalances requires every address's balance to equal the replay's.
func checkBalances(want, got []int64) error {
	if len(want) != len(got) {
		return fail("balances", "%d balances, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			return fail("balances", "address #%d has %d satoshis, replay says %d", i, got[i], want[i])
		}
	}
	return nil
}

// checkCoarsens requires every class of fine to lie inside one class of
// coarse: Heuristic 2 only ever adds links to Heuristic 1.
func checkCoarsens(check string, fine, coarse []int32) error {
	if len(fine) != len(coarse) {
		return fail(check, "partitions cover %d and %d addresses", len(fine), len(coarse))
	}
	into := make(map[int32]int32)
	for i, f := range fine {
		c, ok := into[f]
		if !ok {
			into[f] = coarse[i]
		} else if c != coarse[i] {
			return fail(check, "H1 class %d is split across classes %d and %d", f, c, coarse[i])
		}
	}
	return nil
}

// checkPurity requires every Heuristic 1 class to hold addresses of one
// owner only (owners < 0 are unknown and skipped), and the program's own
// ground-truth figures to say the same: the simulator never co-spends
// across owners.
func checkPurity(h1, owners []int32, truth fistful.H1Result) error {
	owner := make(map[int32]int32)
	for i, c := range h1 {
		o := owners[i]
		if o < 0 {
			continue
		}
		if prev, ok := owner[c]; ok && prev != o {
			return fail("h1_purity", "H1 class %d holds addresses of owners %d and %d", c, prev, o)
		}
		owner[c] = o
	}
	if truth.Truth.Purity != 1 || truth.Truth.Contaminated != 0 {
		return fail("h1_purity", "program reports purity %v with %d contaminated clusters",
			truth.Truth.Purity, truth.Truth.Contaminated)
	}
	return nil
}

// checkLadder requires labeled and estimated false-positive counts not to
// grow down the refinement ladder: each rung only adds suppression.
func checkLadder(ladder []fistful.H2Variant) error {
	if len(ladder) != 5 {
		return fail("ladder_monotone", "ladder has %d rungs, want 5", len(ladder))
	}
	for i := 1; i < len(ladder); i++ {
		a, b := ladder[i-1].Stats, ladder[i].Stats
		if b.Labeled > a.Labeled || b.FalsePositives > a.FalsePositives {
			return fail("ladder_monotone", "rung %q labels %d (FP %d), more than rung %q's %d (FP %d)",
				ladder[i].Name, b.Labeled, b.FalsePositives, ladder[i-1].Name, a.Labeled, a.FalsePositives)
		}
	}
	return nil
}

// checkFigure2 requires non-negative category shares summing to at most
// 100% per sample.
func checkFigure2(share [][]float64) error {
	if len(share) == 0 {
		return fail("figure2_shares", "no categories")
	}
	for si := range share[0] {
		sum := 0.0
		for ci := range share {
			v := share[ci][si]
			if v < 0 {
				return fail("figure2_shares", "category %d has share %v at sample %d", ci, v, si)
			}
			sum += v
		}
		if sum > 100+1e-9 {
			return fail("figure2_shares", "shares at sample %d sum to %v%%", si, sum)
		}
	}
	return nil
}

// checkTable2 bounds the dissolution tracking: no chain followed past
// PeelHops, and exchange peels <= recovered peels <= total peels.
func checkTable2(r fistful.Table2Result, peelHops int) error {
	for ci, h := range r.HopsPerChain {
		if h > peelHops {
			return fail("table2_bounds", "chain %d followed %d hops, limit %d", ci, h, peelHops)
		}
	}
	if r.ExchangePeels > r.RecoveredPeels || r.RecoveredPeels > r.TotalPeels {
		return fail("table2_bounds", "exchange %d, recovered %d, total %d peels",
			r.ExchangePeels, r.RecoveredPeels, r.TotalPeels)
	}
	return nil
}

// bigFourNames are the services the paper's super-cluster joined.
var bigFourNames = []string{"Mt Gox", "Instawallet", "Bitpay", "Silk Road"}

// bigFourSets computes, from ground-truth owner names and a canonical
// partition, every largest set of the four super-cluster services that
// share one class, each sorted. Sets of fewer than two services do not
// count: then the result is empty.
func bigFourSets(labels []int32, ownerName func(i int) string) [][]string {
	byClass := make(map[int32]map[string]bool)
	for i, c := range labels {
		n := ownerName(i)
		if !slices.Contains(bigFourNames, n) {
			continue
		}
		if byClass[c] == nil {
			byClass[c] = make(map[string]bool)
		}
		byClass[c][n] = true
	}
	best := 2
	var sets [][]string
	for _, m := range byClass {
		if len(m) < best {
			continue
		}
		if len(m) > best {
			best, sets = len(m), nil
		}
		var s []string
		for n := range m {
			s = append(s, n)
		}
		slices.Sort(s)
		if !slices.ContainsFunc(sets, func(o []string) bool { return slices.Equal(o, s) }) {
			sets = append(sets, s)
		}
	}
	slices.SortFunc(sets, func(a, b []string) int { return strings.Compare(strings.Join(a, ","), strings.Join(b, ",")) })
	return sets
}

// checkBigFour accepts the program's super-cluster report when it is one of
// the largest sets the benchmark found, or empty when there is none. The
// program breaks ties between equally large sets by map order, so any of
// them is accepted.
func checkBigFour(check string, got []string, accepted [][]string) error {
	if len(accepted) == 0 {
		if len(got) != 0 {
			return fail(check, "program reports %v, but no two of the four share a cluster", got)
		}
		return nil
	}
	for _, s := range accepted {
		if slices.Equal(s, got) {
			return nil
		}
	}
	return fail(check, "program reports %v, largest shared sets are %v", got, accepted)
}

// checkSamePasses requires every pass's results to equal the first pass's.
func checkSamePasses(check string, digests []passDigest) error {
	for i := 1; i < len(digests); i++ {
		if d := digests[0].diff(digests[i]); d != "" {
			return fail(check, "pass %d differs from pass 0 in %s", i, d)
		}
	}
	return nil
}

// checkVisible requires every released tip block to have become visible.
func checkVisible(blocks []tipBlock) error {
	for _, b := range blocks {
		if b.visible.IsZero() {
			return fail("blocks_visible", "block %d was released but never became visible", b.height)
		}
	}
	return nil
}

// balanceAnswer is one /v1/balance response.
type balanceAnswer struct {
	addr     address.Address
	height   int64
	satoshis int64
}

// checkBalanceAnswers requires each /v1/balance answer to equal the
// replayed balance of that address at the height the answer states.
func checkBalanceAnswers(rp *replay, answers []balanceAnswer) error {
	for _, a := range answers {
		want, ok := rp.balanceAt(a.addr, a.height)
		if !ok {
			return fail("balance_answers", "answer for %s at height %d has no replayed balance", a.addr, a.height)
		}
		if want != a.satoshis {
			return fail("balance_answers", "answer for %s at height %d says %d satoshis, replay says %d",
				a.addr, a.height, a.satoshis, want)
		}
	}
	return nil
}

package main

import (
	"fmt"

	"repro/internal/address"
	"repro/internal/chain"
	"repro/internal/script"
)

// replay is the benchmark's own account of a chain, computed straight from
// the blocks without the program's index: transaction and address counts,
// every address's final balance, and the Heuristic 1 partition from a
// union-find over co-spent input addresses. Addresses are numbered in the
// replay's own order of first appearance as an output; every comparison
// with the program goes through the address itself, never through the
// program's ids.
type replay struct {
	numTxs int
	height int64
	addrs  []address.Address
	index  map[address.Address]int32
	// balance is each address's balance after the last block, in satoshis.
	balance []int64
	// h1 is the canonical Heuristic 1 partition (see canonical).
	h1 []int32
	// history holds the balances of watched addresses after each block
	// from history[0] (height histFrom) on.
	watch    map[int32]int
	histFrom int64
	history  [][]int64
}

type replayOut struct {
	addr  int32 // -1: the script pays no address
	value int64
}

// replayChain replays blocks, recording after each block from height
// histFrom on the balances of the addresses chosen by pickWatch (called
// once, on the replay as it stands after block histFrom-1). pickWatch may
// be nil.
func replayChain(blocks []*chain.Block, histFrom int64, pickWatch func(*replay) []int32) (*replay, error) {
	rp := &replay{index: make(map[address.Address]int32), height: int64(len(blocks)) - 1, histFrom: histFrom}
	utxo := make(map[chain.OutPoint]replayOut)
	var parent []int32
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for h, b := range blocks {
		if int64(h) == histFrom && pickWatch != nil {
			rp.watch = make(map[int32]int)
			for _, a := range pickWatch(rp) {
				if _, dup := rp.watch[a]; !dup {
					rp.watch[a] = len(rp.watch)
				}
			}
		}
		for _, tx := range b.Txs {
			rp.numTxs++
			if !tx.IsCoinbase() {
				first := int32(-1)
				for _, in := range tx.Inputs {
					prev, ok := utxo[in.Prev]
					if !ok {
						return nil, fmt.Errorf("replay: block %d spends unknown output %v", h, in.Prev)
					}
					delete(utxo, in.Prev)
					if prev.addr < 0 {
						continue
					}
					rp.balance[prev.addr] -= prev.value
					if first < 0 {
						first = prev.addr
					} else if a, b := find(first), find(prev.addr); a != b {
						parent[b] = a
					}
				}
			}
			id := tx.TxID()
			for j, out := range tx.Outputs {
				ro := replayOut{addr: -1, value: int64(out.Value)}
				if a, err := script.ExtractAddress(out.PkScript); err == nil {
					n, ok := rp.index[a]
					if !ok {
						n = int32(len(rp.addrs))
						rp.index[a] = n
						rp.addrs = append(rp.addrs, a)
						rp.balance = append(rp.balance, 0)
						parent = append(parent, n)
					}
					ro.addr = n
					rp.balance[n] += ro.value
				}
				utxo[chain.OutPoint{TxID: id, Index: uint32(j)}] = ro
			}
		}
		if rp.watch != nil {
			row := make([]int64, len(rp.watch))
			for a, i := range rp.watch {
				row[i] = rp.balance[a]
			}
			rp.history = append(rp.history, row)
		}
	}
	roots := make([]int32, len(parent))
	for i := range parent {
		roots[i] = find(int32(i))
	}
	rp.h1 = canonical(roots)
	return rp, nil
}

// balanceAt returns a watched address's balance after the block at height.
func (rp *replay) balanceAt(a address.Address, height int64) (int64, bool) {
	n, ok := rp.index[a]
	if !ok {
		return 0, false
	}
	i, ok := rp.watch[n]
	k := height - rp.histFrom
	if !ok || k < 0 || k >= int64(len(rp.history)) {
		return 0, false
	}
	return rp.history[k][i], true
}

// canonical relabels a partition given as one label per element so that
// labels number the classes in order of their first element: two label
// vectors describe the same partition exactly when their canonical forms
// are equal.
func canonical(labels []int32) []int32 {
	out := make([]int32, len(labels))
	seen := make(map[int32]int32)
	for i, l := range labels {
		c, ok := seen[l]
		if !ok {
			c = int32(len(seen))
			seen[l] = c
		}
		out[i] = c
	}
	return out
}

// inReplayOrder maps a per-address value of the program (indexed by its own
// address ids) into the replay's address order. lookup resolves an address
// to the program's id.
func inReplayOrder[T any](rp *replay, lookup func(address.Address) (uint32, bool), value func(uint32) T) ([]T, error) {
	out := make([]T, len(rp.addrs))
	for i, a := range rp.addrs {
		id, ok := lookup(a)
		if !ok {
			return nil, fmt.Errorf("address %s is on chain but missing from the program's index", a)
		}
		out[i] = value(id)
	}
	return out, nil
}

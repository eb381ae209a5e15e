// Package core implements the paper's primary contribution: the speed-up
// theorem and normal form for Θ(log* n) LCL problems on toroidal grids
// (§5), the automatic synthesis of asymptotically optimal algorithms (§7),
// the Θ(n) brute-force baseline, and the one-sided classification oracle
// built from them.
//
// The normal form is A = A' ∘ S_k: S_k computes a maximal independent set
// of the k-th power of the grid (the "anchors", problem-independent,
// Θ(log* n) rounds), and A' is a finite lookup table from the h×w window
// of anchor bits around a node to the node's output label. Synthesis
// reduces the construction of A' to a constraint-satisfaction problem on
// the neighbourhood graph of anchor tiles, solved with the CDCL solver.
package core

import (
	"context"
	"fmt"
	"sync"

	"lclgrid/internal/sat"
	"lclgrid/internal/tiles"
)

// TileGraph is the neighbourhood graph H of §7: nodes are the h×w anchor
// tiles for MIS-in-G^(k); a horizontal edge connects the two h×w
// restrictions of every h×(w+1) tile (west tile → east tile), a vertical
// edge the two restrictions of every (h+1)×w tile (south tile → north
// tile).
//
// A TileGraph depends only on its shape (K, H, W), never on a problem,
// and it is immutable once built: nothing writes to Tiles, Index, HEdges,
// VEdges or the adjacency after construction, and the lazy BitIndex is
// built under a sync.Once. One graph may therefore be shared by every
// synthesis and every cached table of its shape (lclgrid's Engine keeps
// one per shape of the default oracle schedule) and read from any
// goroutine.
type TileGraph struct {
	K, H, W int
	Tiles   []tiles.Pattern
	Index   map[string]int
	// HEdges[i] = {west tile index, east tile index}.
	HEdges [][2]int
	// VEdges[i] = {south tile index, north tile index}.
	VEdges [][2]int

	// adj[0] and adj[1] are HEdges and VEdges as the solver's pair-
	// constraint adjacency: what every tile CSP over this graph reads
	// its forbidden-pair clauses from. Graphs rebuilt from the wire form
	// have no edges and no adjacency, and cannot be synthesized over.
	adj [2]*sat.PairGraph

	// bitOnce guards the lazy integer-keyed index; TileGraphs are always
	// shared by pointer (engine graphs and cache, singleflight), never
	// copied.
	bitOnce sync.Once
	bitIdx  map[uint64]int
	bitOK   bool
}

// patternBits packs an h×w anchor pattern into a uint64 key, bit r*w+c
// for the cell at row r, column c. Only valid when h*w <= 64.
func patternBits(p tiles.Pattern) uint64 {
	var key uint64
	for i, b := range p.Bits {
		if b {
			key |= 1 << i
		}
	}
	return key
}

// BitIndex returns the integer-keyed tile index: the map from the packed
// uint64 form of each tile (see patternBits) to its tile number. The
// index is built lazily on first use — which covers both construction
// paths, BuildTileGraph and SynthesizedWire.Decode — and ok is false when
// the window does not fit in 64 bits (h*w > 64), in which case callers
// fall back to the string-keyed Index. Safe for concurrent use.
func (tg *TileGraph) BitIndex() (map[uint64]int, bool) {
	tg.bitOnce.Do(func() {
		if tg.H*tg.W > 64 {
			return
		}
		tg.bitIdx = make(map[uint64]int, len(tg.Tiles))
		for i, p := range tg.Tiles {
			tg.bitIdx[patternBits(p)] = i
		}
		tg.bitOK = true
	})
	return tg.bitIdx, tg.bitOK
}

// BuildTileGraph enumerates the tiles and edges for power k and window
// dimensions h×w. The three tile enumerations dominate synthesis time for
// large powers, so they run under ctx and a cancel aborts construction
// with the context's error.
//
// When the joint windows fit in 64 bits the whole construction is done on
// packed uint64 keys (the patternBits/BitIndex encoding): joint tiles are
// restricted to their two sub-tiles by bit extraction and resolved through
// the integer-keyed index, with no Pattern.Key string ever built for a
// joint. Larger geometries use the string-keyed path.
func BuildTileGraph(ctx context.Context, k, h, w int) (*TileGraph, error) {
	if h*(w+1) <= 64 && (h+1)*w <= 64 {
		return buildTileGraphPacked(ctx, k, h, w)
	}
	tls, err := tiles.EnumerateContext(ctx, k, h, w)
	if err != nil {
		return nil, err
	}
	tg := &TileGraph{
		K:     k,
		H:     h,
		W:     w,
		Tiles: tls,
		Index: make(map[string]int),
	}
	for i, p := range tg.Tiles {
		tg.Index[p.Key()] = i
	}
	hJoints, err := tiles.EnumerateContext(ctx, k, h, w+1)
	if err != nil {
		return nil, err
	}
	for _, joint := range hJoints {
		west, east := joint.Sub(0, 0, h, w), joint.Sub(0, 1, h, w)
		wi, ok1 := tg.Index[west.Key()]
		ei, ok2 := tg.Index[east.Key()]
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("core: horizontal joint tile %s restricts to a non-tile", joint.Key())
		}
		tg.HEdges = append(tg.HEdges, [2]int{wi, ei})
	}
	vJoints, err := tiles.EnumerateContext(ctx, k, h+1, w)
	if err != nil {
		return nil, err
	}
	for _, joint := range vJoints {
		north, south := joint.Sub(0, 0, h, w), joint.Sub(1, 0, h, w)
		ni, ok1 := tg.Index[north.Key()]
		si, ok2 := tg.Index[south.Key()]
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("core: vertical joint tile %s restricts to a non-tile", joint.Key())
		}
		tg.VEdges = append(tg.VEdges, [2]int{si, ni})
	}
	tg.buildAdjacency()
	return tg, nil
}

// unpackPattern expands a packed uint64 window key back into a Pattern.
func unpackPattern(key uint64, h, w int) tiles.Pattern {
	bits := make([]bool, h*w)
	for i := range bits {
		bits[i] = key&(1<<uint(i)) != 0
	}
	return tiles.Pattern{H: h, W: w, Bits: bits}
}

// buildTileGraphPacked is the uint64-keyed construction used when every
// joint window fits a packed key.
func buildTileGraphPacked(ctx context.Context, k, h, w int) (*TileGraph, error) {
	keys, err := tiles.EnumeratePacked(ctx, k, h, w)
	if err != nil {
		return nil, err
	}
	tg := &TileGraph{
		K:      k,
		H:      h,
		W:      w,
		Tiles:  make([]tiles.Pattern, len(keys)),
		Index:  make(map[string]int, len(keys)),
		bitIdx: make(map[uint64]int, len(keys)),
		bitOK:  true,
	}
	tg.bitOnce.Do(func() {}) // the lazy index is pre-built
	for i, key := range keys {
		tg.Tiles[i] = unpackPattern(key, h, w)
		tg.Index[tg.Tiles[i].Key()] = i
		tg.bitIdx[key] = i
	}
	hJoints, err := tiles.EnumeratePacked(ctx, k, h, w+1)
	if err != nil {
		return nil, err
	}
	rowMask := uint64(1)<<uint(w) - 1
	jointRowMask := uint64(1)<<uint(w+1) - 1
	for _, joint := range hJoints {
		var west, east uint64
		for r := 0; r < h; r++ {
			row := joint >> uint(r*(w+1)) & jointRowMask
			west |= (row & rowMask) << uint(r*w)
			east |= (row >> 1) << uint(r*w)
		}
		wi, ok1 := tg.bitIdx[west]
		ei, ok2 := tg.bitIdx[east]
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("core: horizontal joint tile %s restricts to a non-tile", unpackPattern(joint, h, w+1).Key())
		}
		tg.HEdges = append(tg.HEdges, [2]int{wi, ei})
	}
	vJoints, err := tiles.EnumeratePacked(ctx, k, h+1, w)
	if err != nil {
		return nil, err
	}
	winMask := uint64(1)<<uint(h*w) - 1
	for _, joint := range vJoints {
		north := joint & winMask
		south := joint >> uint(w)
		ni, ok1 := tg.bitIdx[north]
		si, ok2 := tg.bitIdx[south]
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("core: vertical joint tile %s restricts to a non-tile", unpackPattern(joint, h+1, w).Key())
		}
		tg.VEdges = append(tg.VEdges, [2]int{si, ni})
	}
	tg.buildAdjacency()
	return tg, nil
}

// buildAdjacency derives the pair-constraint adjacency from the edge
// lists, one graph per dimension, each in its edge order.
func (tg *TileGraph) buildAdjacency() {
	for dim, edges := range [2][][2]int{tg.HEdges, tg.VEdges} {
		tg.adj[dim] = sat.NewPairGraph(len(tg.Tiles), func(add func(u, v, dim int)) {
			for _, e := range edges {
				add(e[0], e[1], dim)
			}
		})
	}
}

// NumTiles returns the number of tiles (nodes of H).
func (tg *TileGraph) NumTiles() int { return len(tg.Tiles) }

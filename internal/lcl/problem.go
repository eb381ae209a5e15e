// Package lcl defines locally checkable labelling problems on oriented
// toroidal grids (§3 of the paper) and a catalogue of the concrete
// problems the paper studies.
//
// Problems are represented in nearest-neighbour subshift-of-finite-type
// (SFT) form: a finite label alphabet, one binary relation per grid
// dimension constraining the labels of a node and its positive-direction
// neighbour, and a unary predicate on labels. §3 of the paper shows that
// every radius-r LCL normalises to this radius-1 form with an enlarged
// alphabet (outputs become claimed neighbourhoods); the catalogue encodes
// edge labellings (edge colourings, orientations, matchings) as per-node
// tuples of half-edge labels with consistency relations, which is exactly
// that normalisation.
package lcl

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"lclgrid/internal/grid"
)

// Problem is an LCL problem in nearest-neighbour SFT form on d-dimensional
// oriented tori. Construct with NewProblem or the catalogue functions.
type Problem struct {
	name   string
	labels []string
	dims   int
	// allowed[i][a*K+b] reports whether label a on node u and label b on
	// the node one step in the positive direction of dimension i may
	// coexist.
	allowed [][]bool
	nodeOK  []bool
	// fp is the Fingerprint, computed once by NewProblem: the problem is
	// immutable, and the engine derives a cache key from it per lookup.
	fp string
}

// NewProblem constructs a problem over the given label names on
// dims-dimensional grids. The allow predicate is consulted once per
// (dimension, label pair) at construction; nodeOK may be nil, meaning all
// labels are valid on their own.
func NewProblem(name string, labels []string, dims int, allow func(dim, a, b int) bool, nodeOK func(a int) bool) *Problem {
	if len(labels) == 0 {
		panic("lcl: problem needs at least one label")
	}
	if dims < 1 {
		panic("lcl: problem needs at least one dimension")
	}
	k := len(labels)
	p := &Problem{
		name:    name,
		labels:  append([]string(nil), labels...),
		dims:    dims,
		allowed: make([][]bool, dims),
		nodeOK:  make([]bool, k),
	}
	for i := 0; i < dims; i++ {
		p.allowed[i] = make([]bool, k*k)
		for a := 0; a < k; a++ {
			for b := 0; b < k; b++ {
				p.allowed[i][a*k+b] = allow(i, a, b)
			}
		}
	}
	for a := 0; a < k; a++ {
		p.nodeOK[a] = nodeOK == nil || nodeOK(a)
	}
	p.fp = p.fingerprint()
	return p
}

// Name returns the problem's display name.
func (p *Problem) Name() string { return p.name }

// K returns the alphabet size.
func (p *Problem) K() int { return len(p.labels) }

// Dims returns the number of grid dimensions the problem is defined on.
func (p *Problem) Dims() int { return p.dims }

// Label returns the display name of label a.
func (p *Problem) Label(a int) string { return p.labels[a] }

// LabelIndex returns the index of the label with the given name, or -1.
func (p *Problem) LabelIndex(name string) int {
	for i, l := range p.labels {
		if l == name {
			return i
		}
	}
	return -1
}

// Allowed reports whether label a on a node and label b on its
// positive-direction neighbour in dimension dim are compatible.
func (p *Problem) Allowed(dim, a, b int) bool {
	return p.allowed[dim][a*len(p.labels)+b]
}

// NodeOK reports whether label a is valid on a node in isolation.
func (p *Problem) NodeOK(a int) bool { return p.nodeOK[a] }

// ConstantSolutions returns the labels that can fill the entire grid by
// themselves; the problem is O(1)-solvable on toroidal grids iff this set
// is non-empty (§6: "only trivial problems ... admit an O(1)-time
// solution in toroidal grids").
func (p *Problem) ConstantSolutions() []int {
	var out []int
	for a := 0; a < p.K(); a++ {
		ok := p.nodeOK[a]
		for i := 0; ok && i < p.dims; i++ {
			ok = p.Allowed(i, a, a)
		}
		if ok {
			out = append(out, a)
		}
	}
	return out
}

// Verify checks a labelling of the torus t against the problem. It
// returns nil if every node predicate and every edge relation holds. The
// torus dimension must match the problem's.
func (p *Problem) Verify(t *grid.Torus, labelling []int) error {
	if t.Dim() != p.dims {
		return fmt.Errorf("lcl: %s is %d-dimensional, torus is %d-dimensional", p.name, p.dims, t.Dim())
	}
	if len(labelling) != t.N() {
		return fmt.Errorf("lcl: labelling has %d entries for %d nodes", len(labelling), t.N())
	}
	k := p.K()
	// coords is v's coordinate vector, advanced by an odometer: the +1
	// neighbour in dimension i is v+stride, or v-(side-1)·stride when
	// coordinate i is side-1 and wraps to 0.
	coords := make([]int, p.dims)
	for v := 0; v < t.N(); v++ {
		a := labelling[v]
		if a < 0 || a >= k {
			return fmt.Errorf("lcl: node %d has label %d outside alphabet", v, a)
		}
		if !p.nodeOK[a] {
			return fmt.Errorf("lcl: node %d has invalid label %s", v, p.labels[a])
		}
		stride := 1
		for i := 0; i < p.dims; i++ {
			side := t.Side(i)
			u := v + stride
			if coords[i] == side-1 {
				u = v - (side-1)*stride
			}
			stride *= side
			b := labelling[u]
			if b < 0 || b >= k {
				return fmt.Errorf("lcl: node %d has label %d outside alphabet", u, b)
			}
			if !p.Allowed(i, a, b) {
				return fmt.Errorf("lcl: edge %d->%d (dim %d) violates %s: %s | %s",
					v, u, i, p.name, p.labels[a], p.labels[b])
			}
		}
		for i := range coords {
			if coords[i]++; coords[i] < t.Side(i) {
				break
			}
			coords[i] = 0
		}
	}
	return nil
}

// String implements fmt.Stringer.
func (p *Problem) String() string {
	return fmt.Sprintf("%s (%d labels, %d-dimensional)", p.name, p.K(), p.dims)
}

// Fingerprint returns a canonical content hash of the problem: the label
// names, the per-dimension relation bitmaps and the node predicate, but
// not the display name. Two problems with the same fingerprint are the
// same constraint system, so synthesized lookup tables (which are pure
// label-index functions) can be shared between them; engine-level
// synthesis caches key on this value.
func (p *Problem) Fingerprint() string { return p.fp }

func (p *Problem) fingerprint() string {
	h := sha256.New()
	var buf [8]byte
	writeInt := func(x int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
	writeInt(p.dims)
	writeInt(len(p.labels))
	for _, l := range p.labels {
		writeInt(len(l))
		h.Write([]byte(l))
	}
	pack := func(bits []bool) {
		b := byte(0)
		for i, ok := range bits {
			if ok {
				b |= 1 << (i % 8)
			}
			if i%8 == 7 {
				h.Write([]byte{b})
				b = 0
			}
		}
		if len(bits)%8 != 0 {
			h.Write([]byte{b})
		}
	}
	pack(p.nodeOK)
	for _, rel := range p.allowed {
		pack(rel)
	}
	return hex.EncodeToString(h.Sum(nil))
}

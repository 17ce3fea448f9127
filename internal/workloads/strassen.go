package workloads

import (
	"fmt"

	"graingraph/internal/machine"
	"graingraph/internal/profile"
	"graingraph/internal/rts"
)

// StrassenParams configures the BOTS Strassen port: recursive matrix
// multiplication with seven subproblem tasks per level, controlled by the
// smallest-submatrix-size cutoff SC.
//
// The original program contains a hard-coded cutoff that overrides SC and
// keeps the recursion shallow regardless of input (paper §4.3.5,
// Figure 11a); HardcodedCutoffBug reproduces it.
type StrassenParams struct {
	N  int // matrix dimension, power of two
	SC int // smallest submatrix size: recursion stops at N <= SC
	// HardcodedCutoffBug reproduces the original BOTS bug: decomposition
	// stops after a fixed recursion depth no matter what SC says.
	HardcodedCutoffBug bool
	Seed               uint64
}

// hardcodedDepth is the buggy fixed recursion limit.
const hardcodedDepth = 2

// DefaultStrassenParams mirrors the paper's small input (2048×2048,
// SC=128) scaled down; the bug is active as in the original program.
func DefaultStrassenParams() StrassenParams {
	return StrassenParams{N: 256, SC: 16, HardcodedCutoffBug: true, Seed: 3}
}

// FixedStrassenParams disables the hard-coded cutoff, the paper's fix.
func FixedStrassenParams() StrassenParams {
	p := DefaultStrassenParams()
	p.HardcodedCutoffBug = false
	p.SC = 32
	return p
}

// StrassenInstance is a runnable Strassen workload.
type StrassenInstance struct {
	P       StrassenParams
	a, b, c []float64 // row-major N×N
	// free holds idle recursion-temporary buffers by dimension. Task
	// bodies run one at a time inside a run, so it needs no lock.
	free map[int][][]float64
}

// NewStrassen creates a Strassen instance. N must be a power of two.
func NewStrassen(p StrassenParams) *StrassenInstance {
	if p.N == 0 || p.N&(p.N-1) != 0 {
		panic(fmt.Sprintf("workloads: Strassen size %d not a power of two", p.N))
	}
	n := p.N * p.N
	return &StrassenInstance{
		P: p, a: make([]float64, n), b: make([]float64, n), c: make([]float64, n),
		free: make(map[int][][]float64),
	}
}

// Name implements Instance.
func (s *StrassenInstance) Name() string {
	bug := "fixed"
	if s.P.HardcodedCutoffBug {
		bug = "buggy"
	}
	return fmt.Sprintf("strassen-n%d-sc%d-%s", s.P.N, s.P.SC, bug)
}

// Key implements Keyed: the content address covers every parameter.
func (s *StrassenInstance) Key() string { return paramKey("strassen", s.P) }

// mat is a view into a row-major matrix backed by a simulated region, so
// footprint accounting follows the data wherever it lives (operands,
// result, or recursion temporaries).
type mat struct {
	data     []float64
	n        int // view dimension
	stride   int // row stride in elements
	reg      *machine.Region
	row, col int // origin within the backing allocation
	full     int // backing allocation's row stride in elements
}

func (m mat) at(i, j int) float64     { return m.data[i*m.stride+j] }
func (m mat) set(i, j int, v float64) { m.data[i*m.stride+j] = v }
func (m mat) quad(qi, qj int) mat {
	h := m.n / 2
	out := m
	out.data = m.data[qi*h*m.stride+qj*h:]
	out.n = h
	out.row = m.row + qi*h
	out.col = m.col + qj*h
	return out
}

// offset returns the byte offset of element (i,0) in the backing region.
func (m mat) offset(i int) int64 { return int64((m.row+i)*m.full+m.col) * 8 }

// loadRow / storeRow / loadCol charge real-layout accesses.
func (m mat) loadRow(c rts.Ctx, i int)  { c.Load(m.reg, m.offset(i), int64(m.n)*8) }
func (m mat) storeRow(c rts.Ctx, i int) { c.Store(m.reg, m.offset(i), int64(m.n)*8) }
func (m mat) loadCol(c rts.Ctx, j int) {
	c.LoadStrided(m.reg, int64(m.row*m.full+m.col+j)*8, m.n, int64(m.full)*8)
}

func (m mat) loadAll(c rts.Ctx) {
	for i := 0; i < m.n; i++ {
		m.loadRow(c, i)
	}
}

func (m mat) storeAll(c rts.Ctx) {
	for i := 0; i < m.n; i++ {
		m.storeRow(c, i)
	}
}

// newTemp takes an h×h temporary with its own simulated region. Its buffer
// comes from the free list when one of that size is idle: every temporary
// is written in full before it is read, so a recycled buffer's old
// contents never show.
func (s *StrassenInstance) newTemp(c rts.Ctx, h int) mat {
	var data []float64
	if idle := s.free[h]; len(idle) > 0 {
		data = idle[len(idle)-1]
		s.free[h] = idle[:len(idle)-1]
	} else {
		data = make([]float64, h*h)
	}
	return mat{
		data:   data,
		n:      h,
		stride: h,
		reg:    c.Alloc("strassen-tmp", int64(h)*int64(h)*8),
		full:   h,
	}
}

// release puts a temporary's buffer back on the free list; call it once
// the temporary's last reader has returned.
func (s *StrassenInstance) release(m mat) { s.free[m.n] = append(s.free[m.n], m.data) }

func addMat(dst, x, y mat) {
	for i := 0; i < dst.n; i++ {
		for j := 0; j < dst.n; j++ {
			dst.set(i, j, x.at(i, j)+y.at(i, j))
		}
	}
}

func subMat(dst, x, y mat) {
	for i := 0; i < dst.n; i++ {
		for j := 0; j < dst.n; j++ {
			dst.set(i, j, x.at(i, j)-y.at(i, j))
		}
	}
}

// mulSeq is the standard multiply at recursion leaves (really executed).
func mulSeq(dst, x, y mat) {
	n := dst.n
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var sum float64
			for k := 0; k < n; k++ {
				sum += x.at(i, k) * y.at(k, j)
			}
			dst.set(i, j, sum)
		}
	}
}

// chargeLeaf accounts a leaf multiply's footprint: per output row one scan
// of the x row and a strided walk of each y column, plus the result store.
func chargeLeaf(c rts.Ctx, dst, x, y mat) {
	n := dst.n
	for i := 0; i < n; i++ {
		x.loadRow(c, i)
		y.loadCol(c, i)
	}
	dst.storeAll(c)
	c.Compute(uint64(n) * uint64(n) * uint64(n) * 2 * costFlop)
}

// Program implements Instance.
func (s *StrassenInstance) Program() func(rts.Ctx) {
	return func(c rts.Ctx) {
		n := s.P.N
		rng := newRNG(s.P.Seed)
		for i := range s.a {
			s.a[i] = rng.Float64()*2 - 1
			s.b[i] = rng.Float64()*2 - 1
			s.c[i] = 0
		}
		bytes := int64(n) * int64(n) * 8
		ra := c.Alloc("A", bytes)
		rb := c.Alloc("B", bytes)
		rc := c.Alloc("C", bytes)
		c.Store(ra, 0, bytes)
		c.Store(rb, 0, bytes)
		c.Compute(uint64(n*n) * costArith)

		A := mat{data: s.a, n: n, stride: n, reg: ra, full: n}
		B := mat{data: s.b, n: n, stride: n, reg: rb, full: n}
		C := mat{data: s.c, n: n, stride: n, reg: rc, full: n}

		var strassen func(c rts.Ctx, dst, x, y mat, depth int)
		strassen = func(c rts.Ctx, dst, x, y mat, depth int) {
			stop := dst.n <= s.P.SC
			if s.P.HardcodedCutoffBug && depth >= hardcodedDepth {
				// The original program's hidden cutoff: decomposition stops
				// here regardless of SC, limiting exposed parallelism.
				stop = true
			}
			if stop {
				mulSeq(dst, x, y)
				chargeLeaf(c, dst, x, y)
				return
			}
			h := dst.n / 2
			x11, x12, x21, x22 := x.quad(0, 0), x.quad(0, 1), x.quad(1, 0), x.quad(1, 1)
			y11, y12, y21, y22 := y.quad(0, 0), y.quad(0, 1), y.quad(1, 0), y.quad(1, 1)

			m := make([]mat, 7)
			type operands struct {
				lf   func(dst, a, b mat)
				la   mat
				lb   mat
				rf   func(dst, a, b mat)
				ra   mat
				rb   mat
				line int
			}
			jobs := []operands{
				{addMat, x11, x22, addMat, y11, y22, 610},
				{addMat, x21, x22, nil, y11, y11, 611},
				{nil, x11, x11, subMat, y12, y22, 612},
				{nil, x22, x22, subMat, y21, y11, 613},
				{addMat, x11, x12, nil, y22, y22, 614},
				{subMat, x21, x11, addMat, y11, y12, 615},
				{subMat, x12, x22, addMat, y21, y22, 616},
			}
			for i, j := range jobs {
				i, j := i, j
				c.Spawn(profile.Loc("strassen.go", j.line, "OptimizedStrassenMultiply"), func(c rts.Ctx) {
					lhs, rhs := j.la, j.ra
					if j.lf != nil {
						lhs = s.newTemp(c, h)
						j.lf(lhs, j.la, j.lb)
						j.la.loadAll(c)
						j.lb.loadAll(c)
						lhs.storeAll(c)
						c.Compute(uint64(h*h) * costFlop)
					}
					if j.rf != nil {
						rhs = s.newTemp(c, h)
						j.rf(rhs, j.ra, j.rb)
						j.ra.loadAll(c)
						j.rb.loadAll(c)
						rhs.storeAll(c)
						c.Compute(uint64(h*h) * costFlop)
					}
					m[i] = s.newTemp(c, h)
					// strassen returns after its subtasks have joined, so
					// lhs and rhs have no reader left.
					strassen(c, m[i], lhs, rhs, depth+1)
					if j.lf != nil {
						s.release(lhs)
					}
					if j.rf != nil {
						s.release(rhs)
					}
				})
			}
			c.TaskWait()
			// Combine the seven products into dst, one task per row band so
			// the O(h²) combine does not serialize the recursion's join.
			bands := 4
			if h < bands {
				bands = 1
			}
			for b := 0; b < bands; b++ {
				rlo, rhi := b*h/bands, (b+1)*h/bands
				c.Spawn(profile.Loc("strassen.go", 650, "combine"), func(c rts.Ctx) {
					for i := rlo; i < rhi; i++ {
						for j := 0; j < h; j++ {
							p1, p2, p3, p4 := m[0].at(i, j), m[1].at(i, j), m[2].at(i, j), m[3].at(i, j)
							p5, p6, p7 := m[4].at(i, j), m[5].at(i, j), m[6].at(i, j)
							dst.set(i, j, p1+p4-p5+p7)
							dst.set(i, j+h, p3+p5)
							dst.set(i+h, j, p2+p4)
							dst.set(i+h, j+h, p1-p2+p3+p6)
						}
						for _, mi := range m {
							mi.loadRow(c, i)
						}
						dst.storeRow(c, i)
						dst.storeRow(c, i+h)
					}
					c.Compute(uint64((rhi-rlo)*h) * 8 * costFlop)
				})
			}
			c.TaskWait()
			for _, mi := range m {
				s.release(mi)
			}
		}
		strassen(c, C, A, B, 0)
		c.TaskWait()
	}
}

// Verify implements Instance: checks C = A×B against a direct multiply on
// sampled rows (full check for small N).
func (s *StrassenInstance) Verify() error {
	n := s.P.N
	rows := []int{0, 1, n / 2, n - 1}
	if n <= 64 {
		rows = rows[:0]
		for i := 0; i < n; i++ {
			rows = append(rows, i)
		}
	}
	for _, i := range rows {
		for j := 0; j < n; j++ {
			var want float64
			for k := 0; k < n; k++ {
				want += s.a[i*n+k] * s.b[k*n+j]
			}
			got := s.c[i*n+j]
			diff := got - want
			if diff > 1e-6 || diff < -1e-6 {
				return fmt.Errorf("strassen: C[%d][%d] = %g, want %g", i, j, got, want)
			}
		}
	}
	return nil
}

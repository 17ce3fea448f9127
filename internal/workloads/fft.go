package workloads

import (
	"fmt"
	"math"
	"math/cmplx"

	"graingraph/internal/profile"
	"graingraph/internal/rts"
)

// FFTParams configures the BOTS FFT port: recursive radix-2 Cooley-Tukey
// over complex samples, spawning tasks per divide. The original program has
// no effective cutoff and drowns in tiny grains (paper §4.3.3, Figure 7);
// the optimized variant adds the recursion cutoff the grain graph's
// parallel-benefit view motivates.
type FFTParams struct {
	N int // samples, power of two
	// Cutoff stops task creation below this subproblem size; 0 reproduces
	// the original program (tasks down to two-sample leaves).
	Cutoff int
	Seed   uint64
}

// DefaultFFTParams is the troubled original configuration at laptop scale.
func DefaultFFTParams() FFTParams { return FFTParams{N: 1 << 13, Cutoff: 0, Seed: 5} }

// OptimizedFFTParams adds the cutoff the paper derives from the grain
// graph.
func OptimizedFFTParams() FFTParams { return FFTParams{N: 1 << 13, Cutoff: 1 << 9, Seed: 5} }

// LargeFFTParams is the optimized program on a memory-resident input — the
// configuration of Figure 8, whose grain graph (≈4.6k grains) shows that
// poor memory-hierarchy utilization remains widespread after the cutoff
// fix.
func LargeFFTParams() FFTParams { return FFTParams{N: 1 << 20, Cutoff: 1 << 9, Seed: 5} }

// FFTInstance is a runnable FFT workload.
type FFTInstance struct {
	P     FFTParams
	out   []complex128
	input []complex128 // preserved for verification
}

// NewFFT creates an FFT instance. N must be a power of two.
func NewFFT(p FFTParams) *FFTInstance {
	if p.N == 0 || p.N&(p.N-1) != 0 {
		panic(fmt.Sprintf("workloads: FFT size %d not a power of two", p.N))
	}
	return &FFTInstance{
		P:     p,
		out:   make([]complex128, p.N),
		input: make([]complex128, p.N),
	}
}

// Name implements Instance.
func (f *FFTInstance) Name() string { return fmt.Sprintf("fft-n%d-cut%d", f.P.N, f.P.Cutoff) }

// Key implements Keyed: the content address covers every parameter.
func (f *FFTInstance) Key() string { return paramKey("fft", f.P) }

// log2 of a power of two.
func ilog2(n int) uint64 {
	l := uint64(0)
	for v := n; v > 1; v >>= 1 {
		l++
	}
	return l
}

// serialFFT really computes the transform of in (with the given stride)
// into out[:n]. The half-transforms land in out's two halves, so no
// temporaries are needed.
func serialFFT(out, in []complex128, n, stride int) {
	if n == 1 {
		out[0] = in[0]
		return
	}
	half := n / 2
	serialFFT(out[:half], in, half, stride*2)
	serialFFT(out[half:], in[stride:], half, stride*2)
	butterflies(out, n)
}

// butterflies combines the half-transforms held in out[:n/2] (even
// samples) and out[n/2:n] (odd samples) into the n-point transform, in
// place.
func butterflies(out []complex128, n int) {
	half := n / 2
	for k := 0; k < half; k++ {
		w := twiddle(k, n)
		even, odd := out[k], out[k+half]
		out[k] = even + w*odd
		out[k+half] = even - w*odd
	}
}

// twiddle is the root of unity exp(-2πik/n). cmplx.Exp(complex(0, θ))
// computes the same value as math.Exp(0)·(cos θ + i sin θ), and
// math.Exp(0) is exactly 1, so Sincos alone yields it bit for bit.
func twiddle(k, n int) complex128 {
	sin, cos := math.Sincos(-2 * math.Pi * float64(k) / float64(n))
	return complex(cos, sin)
}

// Program implements Instance: recursive decimation-in-time FFT with two
// tasks per divide, like BOTS fft.c:4680's fft_aux.
func (f *FFTInstance) Program() func(rts.Ctx) {
	return func(c rts.Ctx) {
		n := f.P.N
		rng := newRNG(f.P.Seed)
		for i := 0; i < n; i++ {
			f.input[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
		}
		inR := c.Alloc("fft-in", int64(n)*16)
		outR := c.Alloc("fft-out", int64(n)*16)
		c.Store(inR, 0, int64(n)*16)
		c.Compute(uint64(n) * costArith)

		cutoff := f.P.Cutoff
		if cutoff < 2 {
			cutoff = 2 // leaves of size <= 2 always run serially
		}

		// off is the subproblem's position in the output region (the
		// natural index space for the simulated footprint).
		var fft func(c rts.Ctx, out, in []complex128, off int64, n, stride int)
		fft = func(c rts.Ctx, out, in []complex128, off int64, n, stride int) {
			if n <= cutoff {
				serialFFT(out, in, n, stride)
				c.Load(inR, off*16, int64(n)*16)
				c.Store(outR, off*16, int64(n)*16)
				c.Compute(uint64(n) * ilog2(n) * 10 * costArith)
				return
			}
			half := n / 2
			c.Spawn(profile.Loc("fft.go", 4680, "fft_aux"), func(c rts.Ctx) {
				fft(c, out[:half], in, off, half, stride*2)
			})
			c.Spawn(profile.Loc("fft.go", 4681, "fft_aux"), func(c rts.Ctx) {
				fft(c, out[half:], in[stride:], off+int64(half), half, stride*2)
			})
			c.TaskWait()
			butterflies(out, n)
			c.Load(outR, off*16, int64(n)*16)
			c.Store(outR, off*16, int64(n)*16)
			c.Compute(uint64(n) * 10 * costArith)
		}
		fft(c, f.out, f.input, 0, n, 1) // the transform only reads its input
		c.TaskWait()
	}
}

// Verify implements Instance: compares against a direct O(n^2) DFT — every
// bin on small inputs, a sample of bins on large ones. The DFT computes its
// own angles and shares nothing with the code it checks.
func (f *FFTInstance) Verify() error {
	n := f.P.N
	bins := []int{0, 1, n / 2, n - 1}
	if n <= 256 {
		bins = bins[:0]
		for k := 0; k < n; k++ {
			bins = append(bins, k)
		}
	}
	for _, k := range bins {
		var want complex128
		for t := 0; t < n; t++ {
			angle := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			sin, cos := math.Sincos(angle)
			want += f.input[t] * complex(cos, sin)
		}
		if d := cmplx.Abs(f.out[k] - want); d > 1e-6*float64(n) {
			return fmt.Errorf("fft: bin %d differs by %g", k, d)
		}
	}
	return nil
}

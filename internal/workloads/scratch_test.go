package workloads

import (
	"testing"
)

// TestSerialFFTAllocatesNothing: the serial transform works in its output
// buffer, with no temporaries.
func TestSerialFFTAllocatesNothing(t *testing.T) {
	const n = 1024
	in, out := make([]complex128, n), make([]complex128, n)
	rng := newRNG(9)
	for i := range in {
		in[i] = complex(rng.Float64(), rng.Float64())
	}
	if allocs := testing.AllocsPerRun(10, func() { serialFFT(out, in, n, 1) }); allocs != 0 {
		t.Errorf("serialFFT at n = %d allocates %.0f times, want 0", n, allocs)
	}
}

// TestScratchSurvivesRerun: FFT, which transforms in its output buffer, and
// Strassen, whose recursion temporaries come from a free list on the
// instance, must still verify when one instance runs again, on another
// core count: nothing a run leaves behind may leak into the next. Every
// temporary goes back on Strassen's list, so a rerun on a core count the
// instance has run on before creates none.
func TestScratchSurvivesRerun(t *testing.T) {
	insts := []Instance{
		NewFFT(FFTParams{N: 1 << 12, Cutoff: 0, Seed: 2}),
		NewFFT(FFTParams{N: 1 << 12, Cutoff: 512, Seed: 2}),
		NewStrassen(StrassenParams{N: 64, SC: 8, HardcodedCutoffBug: true, Seed: 3}),
		NewStrassen(StrassenParams{N: 64, SC: 8, HardcodedCutoffBug: false, Seed: 3}),
	}
	for _, inst := range insts {
		idle, ran := 0, map[int]bool{}
		for _, cores := range []int{48, 1, 48} {
			runOn(t, inst, cores)
			s, ok := inst.(*StrassenInstance)
			if !ok {
				continue
			}
			n := 0
			for _, bufs := range s.free {
				n += len(bufs)
			}
			if n == 0 || ran[cores] && n != idle {
				t.Errorf("%s on %d cores again: %d idle temporaries after the run, %d before", inst.Name(), cores, n, idle)
			}
			idle, ran[cores] = n, true
		}
	}
}

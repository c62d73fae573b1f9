package nn

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/xrand"
)

// sameBits reports whether a and b are the same float32 bit pattern, or
// both NaN. NaN payloads are exempt: when both operands of an add or
// multiply are NaN, x86 returns the first operand's payload, and the Go
// compiler may order the operands of dot's commutative operations either
// way.
func sameBits(a, b float32) bool {
	if a != a && b != b {
		return true
	}
	return math.Float32bits(a) == math.Float32bits(b)
}

// checkDot4 compares dot4 over the four rows of w against dot row by row.
func checkDot4(t *testing.T, x, w []float32) {
	t.Helper()
	n := len(x)
	var got [4]float32
	dot4(x, w, &got)
	for k := range got {
		if want := dot(x, w[k*n:(k+1)*n]); !sameBits(got[k], want) {
			t.Fatalf("len %d row %d: dot4 = %v (%#08x), dot = %v (%#08x)",
				n, k, got[k], math.Float32bits(got[k]), want, math.Float32bits(want))
		}
	}
}

// specials are the values whose rounding and propagation a vector kernel
// could plausibly get wrong: signed zeros, infinities, NaN, denormals at
// both ends of the range, and the extremes of the normal range.
var specials = []float32{
	0, float32(math.Copysign(0, -1)),
	float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
	math.Float32frombits(0x007fffff), -math.Float32frombits(0x007fffff),
	math.MaxFloat32, -math.MaxFloat32, 1, -1,
}

// TestDot4MatchesDot differential-tests the active dot4 (the SSE kernel on
// amd64) against the scalar reference over every length 0..300, which
// covers every lane and tail combination across the network's layer
// widths, on ordinary values, on values whose products underflow into
// denormals, and with special values sprinkled in.
func TestDot4MatchesDot(t *testing.T) {
	rng := xrand.New(61)
	for n := 0; n <= 300; n++ {
		x := make([]float32, n)
		w := make([]float32, 4*n)
		fill := func(scale float64) {
			for i := range x {
				x[i] = float32(rng.Norm() * scale)
			}
			for i := range w {
				w[i] = float32(rng.Norm() * scale)
			}
		}
		fill(1)
		checkDot4(t, x, w)
		fill(1e-20) // products underflow to denormals and zeros
		checkDot4(t, x, w)
		fill(1e19) // sums overflow to ±Inf
		checkDot4(t, x, w)
		if n == 0 {
			continue
		}
		fill(1)
		for j := 0; j < 1+n/16; j++ {
			x[rng.IntN(n)] = specials[rng.IntN(len(specials))]
			w[rng.IntN(4*n)] = specials[rng.IntN(len(specials))]
		}
		checkDot4(t, x, w)
	}
}

// TestDot4NoOverread: the kernel reads only len(x) elements of each of the
// four rows, even when w's backing array runs on.
func TestDot4NoOverread(t *testing.T) {
	back := make([]float32, 4*19+64)
	for i := range back {
		back[i] = float32(math.NaN())
	}
	x := make([]float32, 19)
	for i := range x {
		x[i] = 2
	}
	for i := 0; i < 4*19; i++ {
		back[i] = float32(i%19 + 1)
	}
	var got [4]float32
	dot4(x, back[:4*19], &got)
	for k, v := range got {
		if v != 2*190 {
			t.Fatalf("row %d = %v, want %v", k, v, 2*190)
		}
	}
}

// FuzzDot4 drives the differential test from the fuzzer: the bytes are
// read as little-endian float32s, the first fifth as x and the next four
// fifths as the four rows of w, so arbitrary bit patterns (NaN payloads,
// denormals, signed zeros) reach the kernel.
func FuzzDot4(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, 4*5))
	f.Add([]byte{0, 0, 0x80, 0x7f, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0x80, 0xff, 0, 0, 0xc0, 0x7f})
	seed := make([]byte, 4*5*13)
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, b []byte) {
		n := len(b) / 20
		v := make([]float32, 5*n)
		for i := range v {
			v[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
		}
		checkDot4(t, v[:n], v[n:])
	})
}

func BenchmarkDot4(b *testing.B) {
	rng := xrand.New(62)
	x := make([]float32, 256)
	w := make([]float32, 4*256)
	for i := range x {
		x[i] = float32(rng.Norm())
	}
	for i := range w {
		w[i] = float32(rng.Norm())
	}
	var out [4]float32
	b.SetBytes(4 * 5 * 256)
	for i := 0; i < b.N; i++ {
		dot4(x, w, &out)
	}
}

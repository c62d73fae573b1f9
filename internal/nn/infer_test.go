package nn

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/xrand"
)

// evalNet is benchNet with non-trivial batch-norm state and a final layer
// whose width is not a multiple of four, so every dot4 group and remainder
// path and every batch-norm operation is exercised.
func evalNet(outs int) *Sequential {
	rng := xrand.New(5)
	net := NewSequential(
		NewBatchNorm1D(13), NewLinear(13, 256, rng), NewReLU(),
		NewBatchNorm1D(256), NewLinear(256, 128, rng), NewReLU(),
		NewBatchNorm1D(128), NewLinear(128, 61, rng), NewReLU(),
		NewBatchNorm1D(61), NewLinear(61, outs, rng),
	)
	for _, l := range net.Layers {
		if bn, ok := l.(*BatchNorm1D); ok {
			for c := 0; c < bn.Dim; c++ {
				bn.RunMean[c] = float32(rng.Norm())
				bn.RunVar[c] = float32(rng.Uniform(0.1, 3))
				bn.Gamma.W[c] = float32(rng.Uniform(0.5, 1.5))
				bn.Beta.W[c] = float32(rng.Norm() * 0.1)
			}
		}
	}
	return net
}

// refEval is the eval-mode arithmetic every inference path must reproduce
// bit for bit: scalar dot plus bias for Linear, ((x−μ)·inv)·γ+β per
// element for BatchNorm1D, and max(x, 0) with NaN and −0 mapped to +0 for
// ReLU.
func refEval(net *Sequential, x *Tensor) *Tensor {
	for _, l := range net.Layers {
		var y *Tensor
		switch l := l.(type) {
		case *Linear:
			y = NewTensor(x.Rows, l.Out)
			for r := 0; r < x.Rows; r++ {
				for o := 0; o < l.Out; o++ {
					y.Set(r, o, dot(x.Row(r), l.Weight.W[o*l.In:(o+1)*l.In])+l.Bias.W[o])
				}
			}
		case *BatchNorm1D:
			y = NewTensor(x.Rows, x.Cols)
			for c := 0; c < l.Dim; c++ {
				inv := float32(1 / math.Sqrt(float64(l.RunVar[c]+l.Eps)))
				for r := 0; r < x.Rows; r++ {
					y.Set(r, c, (x.At(r, c)-l.RunMean[c])*inv*l.Gamma.W[c]+l.Beta.W[c])
				}
			}
		case *ReLU:
			y = NewTensor(x.Rows, x.Cols)
			for i, v := range x.Data {
				if v > 0 {
					y.Data[i] = v
				}
			}
		default:
			y = l.Forward(x, false)
		}
		x = y
	}
	return x
}

func sameTensor(t *testing.T, what string, got, want *Tensor) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if !sameBits(got.Data[i], want.Data[i]) {
			t.Fatalf("%s: element %d = %v, want %v", what, i, got.Data[i], want.Data[i])
		}
	}
}

func inputs(rows int, seed uint64) *Tensor {
	x := randTensor(rows, 13, xrand.New(seed))
	if rows > 2 {
		x.Data[3] = float32(math.NaN())
		x.Data[20] = float32(math.Inf(-1))
		x.Data[27] = float32(math.Copysign(0, -1))
	}
	return x
}

// TestInferenceMatchesReference: Predict, PredictInto, PredictProbsInto
// and eval-mode Forward all reproduce the reference arithmetic bitwise, at
// batch sizes on both sides of the inference tile, without writing x.
func TestInferenceMatchesReference(t *testing.T) {
	for _, outs := range []int{1, 6} {
		net := evalNet(outs)
		for _, rows := range []int{0, 1, 3, 255, 256, 257, 600} {
			x := inputs(rows, uint64(rows+1))
			orig := x.Clone()
			want := refEval(net, x)
			name := fmt.Sprintf("outs=%d rows=%d", outs, rows)

			sameTensor(t, name+" Forward", net.Forward(x, false), want)
			sameTensor(t, name+" Predict", net.Predict(x), want)
			into := &Tensor{Rows: rows, Cols: outs, Data: make([]float32, rows*outs)}
			net.PredictInto(x, into.Data)
			sameTensor(t, name+" PredictInto", into, want)
			if outs == 1 {
				probs := net.PredictProbs(x)
				for i, v := range want.Data {
					if p := Sigmoid(v); !sameBits(probs[i], p) {
						t.Fatalf("%s PredictProbs: row %d = %v, want %v", name, i, probs[i], p)
					}
				}
			}
			sameTensor(t, name+" input", x, orig)
		}
	}
}

// TestTrainingForwardMatchesReference: a training-mode Linear forward uses
// the same kernel, so the weights training produces do not depend on it.
func TestTrainingForwardMatchesReference(t *testing.T) {
	rng := xrand.New(8)
	for _, out := range []int{1, 3, 4, 7, 64} {
		l := NewLinear(29, out, rng)
		x := randTensor(17, 29, rng)
		sameTensor(t, fmt.Sprintf("Linear(29→%d)", out), l.Forward(x, true), refEval(NewSequential(l), x))
	}
}

// TestConcurrentPredict: goroutines sharing one network each get their own
// pooled scratch, so concurrent inference matches the reference (run
// with -race to check the sharing).
func TestConcurrentPredict(t *testing.T) {
	net := evalNet(1)
	x := inputs(300, 12)
	want := refEval(net, x)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]float32, x.Rows)
			for i := 0; i < 20; i++ {
				net.PredictInto(x, out)
				for r, v := range want.Data {
					if !sameBits(out[r], v) {
						t.Errorf("row %d = %v, want %v", r, out[r], v)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// scale2 is a layer defined outside the package's inference set: the
// inference pass must fall back to its Forward.
type scale2 struct{}

func (scale2) Forward(x *Tensor, _ bool) *Tensor {
	y := NewTensor(x.Rows, x.Cols)
	for i, v := range x.Data {
		y.Data[i] = 2 * v
	}
	return y
}
func (scale2) Backward(d *Tensor) *Tensor { return d }
func (scale2) Params() []*Param           { return nil }
func (scale2) String() string             { return "scale2" }

// TestInferenceFallbackLayers: layers without an inference method —
// foreign ones, and Dropout, whose eval Forward returns its input — run
// through Forward anywhere in the network, and x is still never written.
func TestInferenceFallbackLayers(t *testing.T) {
	rng := xrand.New(9)
	net := NewSequential(
		NewDropout(0.5, 1), NewLinear(13, 8, rng), scale2{}, NewReLU(),
		NewDropout(0.5, 2), NewBatchNorm1D(8), NewLinear(8, 1, rng), scale2{},
	)
	x := inputs(300, 10)
	orig := x.Clone()
	sameTensor(t, "Predict", net.Predict(x), refEval(net, x))
	sameTensor(t, "input", x, orig)
}

// TestPredictAllocsFlat is the inference pass's allocation gate: once the
// pooled scratch has grown, PredictProbsInto allocates nothing per call,
// so allocs/op and B/op do not grow with the batch (1 to 512 rows). The
// plain Forward allocates a tensor per layer, ~2.7 MB at 512 rows.
func TestPredictAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop Puts at random")
	}
	net := benchNet()
	// MemStats counts the whole process, and the runtime now and then
	// allocates a few hundred bytes on its own; such noise only adds, so
	// each size keeps the smallest of several trials.
	measure := func(rows int) (allocs, bytes float64) {
		x := randTensor(rows, 13, xrand.New(11))
		out := make([]float32, rows)
		net.PredictProbsInto(x, out) // grow the scratch
		const runs = 10
		allocs, bytes = math.Inf(1), math.Inf(1)
		for trial := 0; trial < 5; trial++ {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for i := 0; i < runs; i++ {
				net.PredictProbsInto(x, out)
			}
			runtime.ReadMemStats(&m1)
			allocs = min(allocs, float64(m1.Mallocs-m0.Mallocs)/runs)
			bytes = min(bytes, float64(m1.TotalAlloc-m0.TotalAlloc)/runs)
		}
		return allocs, bytes
	}
	measure(512)
	a1, b1 := measure(1)
	for _, rows := range []int{1, 8, 64, 256, 257, 512} {
		a, b := measure(rows)
		t.Logf("rows %d: %.2f allocs/op, %.1f B/op", rows, a, b)
		if a > a1 || b > b1 {
			t.Errorf("rows %d: %.2f allocs/op and %.1f B/op, above %.2f and %.1f at one row", rows, a, b, a1, b1)
		}
	}
}

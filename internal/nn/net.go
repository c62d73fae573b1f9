package nn

import (
	"strings"
	"sync"
)

// Sequential chains layers; the output of each feeds the next.
type Sequential struct {
	Layers []Layer
}

// NewSequential builds a network from the given layers.
func NewSequential(layers ...Layer) *Sequential { return &Sequential{Layers: layers} }

// Forward runs the network. train toggles training-time behaviour in every
// layer.
func (s *Sequential) Forward(x *Tensor, train bool) *Tensor {
	for _, l := range s.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward propagates dout through the network in reverse, accumulating
// parameter gradients, and returns the gradient w.r.t. the input.
func (s *Sequential) Backward(dout *Tensor) *Tensor {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		dout = s.Layers[i].Backward(dout)
	}
	return dout
}

// Params returns all learnable parameters in layer order.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// ZeroGrad clears every parameter gradient.
func (s *Sequential) ZeroGrad() {
	for _, p := range s.Params() {
		for i := range p.G {
			p.G[i] = 0
		}
	}
}

// NumParams returns the total learnable parameter count.
func (s *Sequential) NumParams() int {
	n := 0
	for _, p := range s.Params() {
		n += len(p.W)
	}
	return n
}

// String prints the architecture, one layer per line.
func (s *Sequential) String() string {
	var b strings.Builder
	b.WriteString("Sequential[")
	for i, l := range s.Layers {
		if i > 0 {
			b.WriteString(" → ")
		}
		b.WriteString(l.String())
	}
	b.WriteString("]")
	return b.String()
}

// Predict runs inference (eval mode) and returns the raw outputs.
func (s *Sequential) Predict(x *Tensor) *Tensor {
	var out *Tensor
	s.inferTiles(x, func(lo int, y *Tensor) {
		if out == nil {
			out = NewTensor(x.Rows, y.Cols)
		}
		copy(out.Data[lo*y.Cols:], y.Data)
	})
	return out
}

// PredictInto is Predict writing the raw outputs row-major into out, which
// must have exactly x.Rows × (output width) slots. Apart from out it
// allocates nothing for networks built from this package's layers.
func (s *Sequential) PredictInto(x *Tensor, out []float32) {
	s.inferTiles(x, func(lo int, y *Tensor) {
		if len(out) != x.Rows*y.Cols {
			panic("nn: PredictInto output length must equal x.Rows × output width")
		}
		copy(out[lo*y.Cols:], y.Data)
	})
}

// PredictProbs runs inference and applies a sigmoid to a single-output
// network, returning one probability per row.
func (s *Sequential) PredictProbs(x *Tensor) []float32 {
	out := make([]float32, x.Rows)
	s.PredictProbsInto(x, out)
	return out
}

// PredictProbsInto is PredictProbs writing into out, which must have
// exactly x.Rows slots. Sharded inference paths use it to write each
// shard's probabilities straight into its slice of the result; apart from
// out it allocates nothing for networks built from this package's layers.
func (s *Sequential) PredictProbsInto(x *Tensor, out []float32) {
	s.inferTiles(x, func(lo int, y *Tensor) {
		if y.Cols != 1 {
			panic("nn: PredictProbs requires a single-output network")
		}
		if len(out) != x.Rows {
			panic("nn: PredictProbsInto output length must equal x.Rows")
		}
		for i, v := range y.Data {
			out[lo+i] = Sigmoid(v)
		}
	})
}

// inferLayer is a layer of this package with an inference-only pass that
// writes its eval-mode output into a caller-owned tensor.
type inferLayer interface {
	// outCols returns the output width for inputs of width in, panicking
	// on a width the layer cannot take.
	outCols(in int) int
	// infer writes the eval-mode output for x into y, already shaped
	// x.Rows × outCols(x.Cols). It never writes x.
	infer(y, x *Tensor, buf *inferBuf)
}

// inferTileRows bounds the rows one pass carries through the network, so
// the scratch is at most two activations of inferTileRows × the widest
// layer whatever the batch. Eval mode treats rows independently, so tiling
// changes no output bit.
const inferTileRows = 64

// inferBuf is the pooled working memory of one inference pass.
type inferBuf struct {
	act [2][]float32 // ping-pong activations
	out [2]Tensor    // views over act
	in  Tensor       // view of the current input tile
	vec []float32    // per-feature constants of the current layer
}

var inferPool = sync.Pool{New: func() any { return new(inferBuf) }}

// grow returns s resized to n, reallocating only when it is too small.
func grow(s []float32, n int) []float32 {
	if cap(s) < n {
		return make([]float32, n)
	}
	return s[:n]
}

// inferTiles runs the inference-only pass over x tile by tile and hands
// emit each tile's output with the index of the tile's first row. The
// output aliases pooled scratch and is valid only during the call. Layers
// of this package write into the scratch, ping-ponging between two
// buffers; any other layer (quant.QATLinear, say) runs its eval-mode
// Forward. x is never written. A zero-row x still makes one empty pass, so
// emit always sees the output width.
func (s *Sequential) inferTiles(x *Tensor, emit func(lo int, y *Tensor)) {
	buf := inferPool.Get().(*inferBuf)
	defer inferPool.Put(buf)
	for lo := 0; lo == 0 || lo < x.Rows; lo += inferTileRows {
		hi := min(lo+inferTileRows, x.Rows)
		buf.in = Tensor{Rows: hi - lo, Cols: x.Cols, Data: x.Data[lo*x.Cols : hi*x.Cols]}
		cur, k := &buf.in, 0
		for _, l := range s.Layers {
			il, ok := l.(inferLayer)
			if !ok {
				cur = l.Forward(cur, false)
				continue
			}
			cols := il.outCols(cur.Cols)
			buf.act[k] = grow(buf.act[k], cur.Rows*cols)
			y := &buf.out[k]
			*y = Tensor{Rows: cur.Rows, Cols: cols, Data: buf.act[k]}
			il.infer(y, cur, buf)
			cur, k = y, 1-k
		}
		emit(lo, cur)
	}
}

package nn

import (
	"fmt"

	"repro/internal/calibrate"
	"repro/internal/tensor"
)

// Int8 quantized execution nodes (DESIGN.md §9). CompileInt8 compiles the
// network like Compile[float32], then runs a calibration batch through the f32
// nodes recording the activation range entering every top-level Conv2D and
// Dense layer, and swaps those nodes for quantized versions:
//
//	quantize input (uint8, calibrated affine scale/zp)
//	  → uint8 GEMM with int32 accumulators: direct shift (stride 1) or
//	    implicit-GEMM (strided) convolution, Dense against a compile-time
//	    transposed weight pack; verified mode checks either product in its
//	    epilogue (tensor.VerifyConvU8, VerifyGemmU8)
//	  → fused dequantize + bias (tensor.DequantRow), then the absorbed
//	    ReLU / 2×2 max-pool stages of the conv epilogue (nn/epilogue.go)
//
// Weights use per-output-channel symmetric scales quantized from the
// ORIGINAL float64 parameters, so weight precision is exactly the 8-bit
// budget and not 8 bits of an f32 round-trip. Layers inside composite
// blocks (ResidualBlock, DenseUnit) stay float32: their activations feed
// shortcut adds and concats where requantization error compounds, and the
// zoo's composite convs are a small share of total MACs.

// qconv32 is the quantized convolution node. The dequant corrections are
// folded per output channel at compile time: corr[oc] = zp·Σqw (the
// zero-point term) and deq[oc] = s_x·s_w[oc] (the combined scale); the
// column-sum term is produced by the GEMM per output position.
type qconv32 struct {
	g    tensor.ConvGeom // InH and InW are set per call
	outC int

	qw    tensor.QuantWeights
	shift *tensor.PackedConvShift // compile-time kernel-column panels (stride-1 only)
	deq   []float32
	corr  []int32
	bias  []float32

	invScale float32
	zp       uint8

	// epi holds the stages the epilogue absorbed from the following nodes
	// (Net.fuse); 0 for dequantize + bias only.
	epi tensor.Epi
}

func newQConv32(c *Conv2D, scale float32, zp uint8) *qconv32 {
	q := &qconv32{
		g:        tensor.ConvGeom{InC: c.InC, KH: c.KH, KW: c.KW, Stride: c.Stride, Pad: c.Pad},
		outC:     c.OutC,
		qw:       tensor.QuantizeWeightsSym(c.weight.Value.Data, c.OutC, c.InC*c.KH*c.KW),
		deq:      make([]float32, c.OutC),
		corr:     make([]int32, c.OutC),
		bias:     make([]float32, c.OutC),
		invScale: 1 / scale,
		zp:       zp,
	}
	if c.Stride == 1 && c.InC*c.KH*c.KW <= tensor.MaxQuantK {
		q.shift = tensor.PackConvShiftU8(q.qw.Bits, c.OutC, c.InC, c.KH, c.KW)
	}
	for oc := 0; oc < c.OutC; oc++ {
		q.deq[oc] = float32(float64(scale) * q.qw.Scale[oc])
		q.corr[oc] = int32(zp) * q.qw.RowSum[oc]
		q.bias[oc] = float32(c.bias.Value.Data[oc])
	}
	return q
}

func (q *qconv32) forward(src []float32, in []int, bsz int, a *tensor.Arena) ([]float32, []int) {
	g := q.g
	g.InH, g.InW = in[1], in[2]
	oh, ow := g.OutH(), g.OutW()
	ohw := oh * ow
	bohw := bsz * ohw

	qsrc := tensor.Raw[uint8](a, len(src))
	tensor.QuantizeU8(qsrc, src, q.invScale, q.zp)

	acc := tensor.Raw[int32](a, q.outC*bohw)
	colsum := tensor.Raw[int32](a, bohw)
	x := qsrc[:bsz*g.InC*g.InH*g.InW]
	if q.shift != nil {
		// Direct shift convolution: no im2col operand at all — the
		// kernels consume the padded channel-interleaved image through
		// the compile-time kernel-column weight panels (DESIGN.md §14).
		// int32 accumulation is order-independent, so the result is exact.
		tensor.ConvDirectU8(acc, colsum, q.shift, x, bsz, g, q.zp)
	} else {
		// Strided convs: implicit GEMM, the byte im2col operand
		// generated per panel instead of materialized.
		tensor.ConvGemmU8Im2Col(acc, colsum, q.qw.Bits, q.outC, x, bsz, g, q.zp)
	}
	if s := a.Abft(); s != nil {
		s.Record(tensor.VerifyConvU8(acc, colsum, q.qw.Bits, q.outC, x, bsz, g, q.zp))
	}

	// The epilogue dequantizes each (channel, image) plane into an L1-sized
	// scratch plane and runs the absorbed stages from there into dst.
	outShape := epiShape(q.outC, oh, ow, q.epi)
	plane := prodShape(outShape) / q.outC
	dst := tensor.Raw[float32](a, bsz*prodShape(outShape))
	var deq []float32
	if q.epi != 0 {
		deq = tensor.Raw[float32](a, ohw)
	}
	for oc := 0; oc < q.outC; oc++ {
		crow := acc[oc*bohw : (oc+1)*bohw]
		for b := 0; b < bsz; b++ {
			drow := dst[(b*q.outC+oc)*plane : (b*q.outC+oc+1)*plane]
			if q.epi == 0 {
				tensor.DequantRow(drow, crow[b*ohw:(b+1)*ohw], colsum[b*ohw:(b+1)*ohw], q.corr[oc], q.deq[oc], q.bias[oc])
				continue
			}
			tensor.DequantRow(deq, crow[b*ohw:(b+1)*ohw], colsum[b*ohw:(b+1)*ohw], q.corr[oc], q.deq[oc], q.bias[oc])
			tensor.RectifyPool(drow, deq, oh, ow, 0, q.epi)
		}
	}
	return dst, outShape
}

// qdense32 is the quantized fully connected node. It keeps activations in
// their natural [B, In] row layout and runs them against the compile-time
// transposed weight pack [In, Out], so there is no per-call activation
// transpose, output scatter or weight-side column-sum pass; the zero-point
// correction uses the activation row sums instead. The dequant epilogue is
// the operation sequence of tensor.DequantRow (c − 128·rowsum − corr,
// convert, ×deq, +bias).
type qdense32 struct {
	in, out int

	packed *tensor.PackedU8T // compile-time [In, Out] transpose of the quantized weights
	deq    []float32
	corr   []int32
	bias   []float32

	invScale float32
	zp       uint8
}

func newQDense32(d *Dense, scale float32, zp uint8) *qdense32 {
	qw := tensor.QuantizeWeightsSym(d.weight.Value.Data, d.Out, d.In)
	q := &qdense32{
		in: d.In, out: d.Out,
		packed:   tensor.PackQuantTranspose(qw),
		deq:      make([]float32, d.Out),
		corr:     make([]int32, d.Out),
		bias:     make([]float32, d.Out),
		invScale: 1 / scale,
		zp:       zp,
	}
	for o := 0; o < d.Out; o++ {
		q.deq[o] = float32(float64(scale) * qw.Scale[o])
		q.corr[o] = int32(zp) * qw.RowSum[o]
		q.bias[o] = float32(d.bias.Value.Data[o])
	}
	return q
}

func (q *qdense32) forward(src []float32, in []int, bsz int, a *tensor.Arena) ([]float32, []int) {
	if prodShape(in) != q.in {
		panic(fmt.Sprintf("nn: qdense32: batched input of %d elements, want %d", prodShape(in), q.in))
	}
	qa := tensor.Raw[uint8](a, bsz*q.in)
	tensor.QuantizeU8(qa, src[:bsz*q.in], q.invScale, q.zp)

	acc := tensor.Raw[int32](a, bsz*q.out)
	tensor.GemmU8PreInto(acc, qa, q.packed.Bits, bsz, q.in, q.out)
	if s := a.Abft(); s != nil {
		// The verifier's injection and repair seams write through the
		// colsum slice, so hand it a scratch copy of the precomputed sums.
		cs := tensor.Raw[int32](a, q.out)
		copy(cs, q.packed.ColSum)
		s.Record(tensor.VerifyGemmU8(acc, cs, qa, q.packed.Bits, bsz, q.in, q.out))
	}

	dst := tensor.Raw[float32](a, bsz*q.out)
	for b := 0; b < bsz; b++ {
		var rs int32
		for _, v := range qa[b*q.in : (b+1)*q.in] {
			rs += int32(v)
		}
		arow := acc[b*q.out : (b+1)*q.out]
		drow := dst[b*q.out : (b+1)*q.out]
		// The product is rounded before the bias add, as DequantRow
		// rounds it, on every target.
		for o := 0; o < q.out; o++ {
			drow[o] = float32(float32(arow[o]-128*rs-q.corr[o])*q.deq[o]) + q.bias[o]
		}
	}
	return dst, []int{q.out}
}

// CompileInt8 compiles the network into an int8-quantized inference net.
// calib is a non-empty sample of network inputs (already preprocessed the
// way inference inputs will be); each top-level Conv2D and Dense layer's
// input-activation range over the sample fixes its quantization scale and
// zero point. Layers whose dot-product length exceeds tensor.MaxQuantK
// stay float32 (the int8 GEMM's accumulator would overflow); everything in
// the model zoo is far under the cap.
func (n *Network) CompileInt8(calib []*tensor.T) (*Net32, error) {
	net, err := n.compileInt8(calib)
	if err != nil {
		return nil, err
	}
	net.fuse()
	return net, nil
}

// compileInt8 is CompileInt8 without the epilogue fuse pass, which must
// follow quantization: calibration indexes the nodes by layer.
func (n *Network) compileInt8(calib []*tensor.T) (*Net32, error) {
	net, err := compileLayerwise[float32](n)
	if err != nil {
		return nil, err
	}
	if len(calib) == 0 {
		return nil, fmt.Errorf("nn: CompileInt8: empty calibration sample")
	}

	// Mark the quantizable node indices (top-level Conv2D/Dense under the
	// accumulator cap), then run the calibration batch through the f32
	// nodes, observing the input activation range at each marked node.
	quantizable := make([]bool, len(n.Layers))
	for i, l := range n.Layers {
		switch t := l.(type) {
		case *Conv2D:
			quantizable[i] = t.InC*t.KH*t.KW <= tensor.MaxQuantK
		case *Dense:
			quantizable[i] = t.In <= tensor.MaxQuantK
		}
	}
	for _, x := range calib[1:] {
		if !x.SameShape(calib[0]) {
			return nil, fmt.Errorf("nn: CompileInt8: mixed calibration shapes %v vs %v", x.Shape, calib[0].Shape)
		}
	}
	ranges := make([]calibrate.Range, len(net.nodes))
	a := tensor.NewArena()
	bsz := len(calib)
	shape := append([]int(nil), calib[0].Shape...)
	elems := prodShape(shape)
	cur := tensor.Raw[float32](a, bsz*elems)
	for b, x := range calib {
		castInto(cur[b*elems:(b+1)*elems], x.Data)
	}
	for i, nd := range net.nodes {
		if quantizable[i] {
			ranges[i].ObserveSlice32(cur)
		}
		cur, shape = nd.forward(cur, shape, bsz, a)
	}

	for i, l := range n.Layers {
		if !quantizable[i] {
			continue
		}
		scale, zp := ranges[i].AffineU8()
		switch t := l.(type) {
		case *Conv2D:
			net.nodes[i] = newQConv32(t, scale, zp)
		case *Dense:
			net.nodes[i] = newQDense32(t, scale, zp)
		}
	}
	net.Quantized = true
	return net, nil
}

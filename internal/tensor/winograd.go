package tensor

import "fmt"

// Winograd F(4×4, 3×3) convolution, kept for the kernel probe of the
// benchmark harness (benchmark/kernels.go) and for nothing else: no served
// or verified network runs it. Every target serves the im2col lowering of
// DESIGN.md §7. The probe, WinogradConv3x3Pre, WinogradConv3x3F32Pre,
// PackWinoFilter{,32} and the helpers below are deleted together when the
// kernel numbers move onto the one benchmark harness (ROADMAP direction 1).
//
// F(4×4, 3×3) computes each 4×4 output tile of a stride-1 3×3 convolution
// from a 6×6 input tile using 36 multiplies per (in-channel, out-channel)
// pair instead of the direct method's 144: the inputs and filters are
// moved into the Winograd transform domain (cheap add/scale transforms),
// multiplied element-wise — which across channels becomes 36 small GEMMs
// with k = InC — and transformed back. See Lavin & Gray, "Fast Algorithms
// for Convolutional Networks" (arXiv:1509.09308).
//
// The transform-domain layout batches all images of the minibatch into a
// single tile axis: V[f] is an InC × (B*tiles) matrix, so each of the 36
// GEMMs fuses the whole minibatch exactly like the im2col path does.
//
// Numerics: the transforms reassociate sums and scale by small constants,
// so results agree with im2col+GEMM only to within a few ULPs (empirically
// ~1e-13 relative; locked by TestWinogradConvMatchesIm2Col).

// winogradEligible reports whether the geometry can take the F(4×4, 3×3)
// path: 3×3 kernel, stride 1, pad 1 (so the output extent equals the
// input extent) and spatial dims divisible by the 4×4 output tile.
func winogradEligible(g ConvGeom) bool {
	return g.KH == 3 && g.KW == 3 && g.Stride == 1 && g.Pad == 1 &&
		g.InH > 0 && g.InW > 0 && g.InH%4 == 0 && g.InW%4 == 0
}

// WinogradConv3x3Pre computes the batched stride-1 pad-1 3×3 convolution
// of bsz images packed image-major in src ([bsz, InC*InH*InW] row-major)
// into dst ([bsz, OutC*InH*InW]), adding bias per output channel. u is
// the 36×OutC×InC filter transform PackWinoFilter computed from the
// [OutC, InC*3*3] weights. Scratch comes from a; the caller owns Reset.
// dst is fully overwritten (arena Raw buffers are fine). Its only caller is
// the benchmark kernel probe (see the file comment).
func WinogradConv3x3Pre(dst, src *T, bsz, outC int, u []float64, bias []float64, g ConvGeom, a *Arena) {
	if !winogradEligible(g) {
		panic(fmt.Sprintf("tensor: WinogradConv3x3Pre on ineligible geometry %+v", g))
	}
	inC, h, w := g.InC, g.InH, g.InW
	hw := h * w
	if len(src.Data) != bsz*inC*hw || len(dst.Data) != bsz*outC*hw {
		panic(fmt.Sprintf("tensor: WinogradConv3x3Pre buffer sizes src=%d dst=%d for B=%d geom %+v", len(src.Data), len(dst.Data), bsz, g))
	}
	if len(u) != 36*outC*inC || len(bias) != outC {
		panic(fmt.Sprintf("tensor: WinogradConv3x3Pre u %d / bias %d mismatch OutC=%d InC=%d", len(u), len(bias), outC, inC))
	}
	tt := bsz * (h / 4) * (w / 4)
	v := Raw[float64](a, 36*inC*tt)
	mm := Raw[float64](a, 36*outC*tt)
	winoConvPre(dst.Data, src.Data, bsz, outC, bias, g, u, v, mm, a)
}

// WinogradConv3x3F32Pre is WinogradConv3x3Pre for float32, consuming a
// PackWinoFilter32 buffer. Like it, it exists only for the benchmark
// kernel probe (see the file comment).
func WinogradConv3x3F32Pre(dst, src *T32, bsz, outC int, u []float32, bias []float32, g ConvGeom, a *Arena) {
	if !winogradEligible(g) {
		panic(fmt.Sprintf("tensor: WinogradConv3x3F32Pre on ineligible geometry %+v", g))
	}
	inC, h, w := g.InC, g.InH, g.InW
	hw := h * w
	if len(src.Data) != bsz*inC*hw || len(dst.Data) != bsz*outC*hw {
		panic(fmt.Sprintf("tensor: WinogradConv3x3F32Pre buffer sizes src=%d dst=%d for B=%d geom %+v", len(src.Data), len(dst.Data), bsz, g))
	}
	if len(u) != 36*outC*inC || len(bias) != outC {
		panic(fmt.Sprintf("tensor: WinogradConv3x3F32Pre u %d / bias %d mismatch OutC=%d InC=%d", len(u), len(bias), outC, inC))
	}
	tt := bsz * (h / 4) * (w / 4)
	v := Raw[float32](a, 36*inC*tt)
	mm := Raw[float32](a, 36*outC*tt)
	winoConvPre(dst.Data, src.Data, bsz, outC, bias, g, u, v, mm, a)
}

// winoConvPre is the width-generic Winograd pipeline from the filter
// transform on (u already holds U = G·g·Gᵀ): input transform, the 36
// transform-domain GEMMs through gemmServed (edge scratch from a), and the
// fused output transform + bias add.
func winoConvPre[F Float](dst, src []F, bsz, outC int, bias []F, g ConvGeom, u, v, mm []F, a *Arena) {
	inC, h, w := g.InC, g.InH, g.InW
	th, tw := h/4, w/4
	tiles := th * tw
	tt := bsz * tiles

	winoInput(v, src, bsz, inC, h, w, th, tw, tt)

	// 36 transform-domain GEMMs: M[f] = U[f] (OutC×InC) × V[f] (InC×tt).
	for f := 0; f < 36; f++ {
		gemmServed(mm[f*outC*tt:(f+1)*outC*tt], u[f*outC*inC:(f+1)*outC*inC], v[f*inC*tt:(f+1)*inC*tt], outC, inC, tt, a)
	}

	winoOutput(dst, mm, bias, bsz, outC, h, w, th, tw, tt)
}

// winoFilter fills u (36 planes of OutC×InC) with U = G g Gᵀ for every
// (out-channel, in-channel) 3×3 filter g.
func winoFilter[F Float](u, wd []F, outC, inC int) {
	plane := outC * inC
	var t [18]F // G·g, 6×3 row-major
	for oc := 0; oc < outC; oc++ {
		for ic := 0; ic < inC; ic++ {
			g9 := wd[(oc*inC+ic)*9 : (oc*inC+ic)*9+9]
			// Apply G to each column of g.
			for c := 0; c < 3; c++ {
				v0, v1, v2 := g9[c], g9[3+c], g9[6+c]
				s := v0/24 + v2/6
				d := v1 / 12
				t[c] = v0 / 4
				t[3+c] = -(v0 + v1 + v2) / 6
				t[6+c] = (v1 - v0 - v2) / 6
				t[9+c] = s + d
				t[12+c] = s - d
				t[15+c] = v2
			}
			// Apply G to each row of G·g; scatter into the 36 planes.
			base := oc*inC + ic
			for r := 0; r < 6; r++ {
				v0, v1, v2 := t[3*r], t[3*r+1], t[3*r+2]
				s := v0/24 + v2/6
				d := v1 / 12
				u[(6*r+0)*plane+base] = v0 / 4
				u[(6*r+1)*plane+base] = -(v0 + v1 + v2) / 6
				u[(6*r+2)*plane+base] = (v1 - v0 - v2) / 6
				u[(6*r+3)*plane+base] = s + d
				u[(6*r+4)*plane+base] = s - d
				u[(6*r+5)*plane+base] = v2
			}
		}
	}
}

// winoInput fills v (36 planes of InC×tt) with the transformed 6×6 input
// tiles of every image and channel. Tile (ty,tx) covers input rows
// 4ty-1…4ty+4 (pad-1 border reads are zero); transform-domain column index
// is b*tiles + ty*tw + tx, image-major to match the batched layout.
//
// The Bᵀ d B transform is written out inline — this is the hottest loop
// of the Winograd path, and a 6-in/6-out helper function is beyond the
// inliner's budget, so calling one would push every intermediate through
// the stack. Interior tiles run the column pass straight off the source
// rows, skipping the gather copy; the row pass fuses with the scatter
// into the 36 frequency planes.
func winoInput[F Float](v, src []F, bsz, inC, h, w, th, tw, tt int) {
	hw := h * w
	tiles := th * tw
	step := inC * tt
	var d [36]F
	for b := 0; b < bsz; b++ {
		img := src[b*inC*hw : (b+1)*inC*hw]
		for ic := 0; ic < inC; ic++ {
			ch := img[ic*hw : (ic+1)*hw]
			vbase := ic*tt + b*tiles
			for ty := 0; ty < th; ty++ {
				y0 := 4*ty - 1
				for tx := 0; tx < tw; tx++ {
					x0 := 4*tx - 1
					if y0 >= 0 && y0+6 <= h && x0 >= 0 && x0+6 <= w {
						// Interior tile: column transform directly from
						// the six source rows.
						o := y0*w + x0
						r0 := ch[o:][:6]
						r1 := ch[o+w:][:6]
						r2 := ch[o+2*w:][:6]
						r3 := ch[o+3*w:][:6]
						r4 := ch[o+4*w:][:6]
						r5 := ch[o+5*w:][:6]
						for c := 0; c < 6; c++ {
							v0, v1, v2, v3, v4, v5 := r0[c], r1[c], r2[c], r3[c], r4[c], r5[c]
							c1 := v3 - v1
							c2 := v4 - v2
							d[c] = 4*v0 - 5*v2 + v4
							d[6+c] = (v3 + v4) - 4*(v1+v2)
							d[12+c] = (v4 - v3) + 4*(v1-v2)
							d[18+c] = 2*c1 + c2
							d[24+c] = -2*c1 + c2
							d[30+c] = 4*v1 - 5*v3 + v5
						}
					} else {
						// Border tile: zero-padded gather, then the same
						// column transform in place.
						d = [36]F{}
						for r := 0; r < 6; r++ {
							y := y0 + r
							if y < 0 || y >= h {
								continue
							}
							for cx := 0; cx < 6; cx++ {
								x := x0 + cx
								if x >= 0 && x < w {
									d[6*r+cx] = ch[y*w+x]
								}
							}
						}
						for c := 0; c < 6; c++ {
							v0, v1, v2, v3, v4, v5 := d[c], d[6+c], d[12+c], d[18+c], d[24+c], d[30+c]
							c1 := v3 - v1
							c2 := v4 - v2
							d[c] = 4*v0 - 5*v2 + v4
							d[6+c] = (v3 + v4) - 4*(v1+v2)
							d[12+c] = (v4 - v3) + 4*(v1-v2)
							d[18+c] = 2*c1 + c2
							d[24+c] = -2*c1 + c2
							d[30+c] = 4*v1 - 5*v3 + v5
						}
					}
					// Row transform fused with the scatter: row r feeds
					// frequency planes 6r…6r+5.
					col := vbase + ty*tw + tx
					for r := 0; r < 6; r++ {
						v0, v1, v2, v3, v4, v5 := d[6*r], d[6*r+1], d[6*r+2], d[6*r+3], d[6*r+4], d[6*r+5]
						c1 := v3 - v1
						c2 := v4 - v2
						idx := (6*r)*step + col
						v[idx] = 4*v0 - 5*v2 + v4
						v[idx+step] = (v3 + v4) - 4*(v1+v2)
						v[idx+2*step] = (v4 - v3) + 4*(v1-v2)
						v[idx+3*step] = 2*c1 + c2
						v[idx+4*step] = -2*c1 + c2
						v[idx+5*step] = 4*v1 - 5*v3 + v5
					}
				}
			}
		}
	}
}

// winoOut1D applies the F(4×4,3×3) output transform Aᵀ to one 6-vector.
func winoOut1D[F Float](t0, t1, t2, t3, t4, t5 F) (y0, y1, y2, y3 F) {
	s := t1 + t2
	d := t1 - t2
	e := t3 + t4
	f := t3 - t4
	y0 = t0 + s + e
	y1 = d + 2*f
	y2 = s + 4*e
	y3 = d + 8*f + t5
	return
}

// winoOutput inverse-transforms the 36 product planes (each OutC×tt) into
// the image-major batched output, adding the channel bias.
func winoOutput[F Float](dst, m, bias []F, bsz, outC, h, w, th, tw, tt int) {
	hw := h * w
	tiles := th * tw
	plane := outC * tt
	var y [24]F // Aᵀ·M, 4×6 row-major
	for b := 0; b < bsz; b++ {
		out := dst[b*outC*hw : (b+1)*outC*hw]
		for oc := 0; oc < outC; oc++ {
			bv := bias[oc]
			och := out[oc*hw : (oc+1)*hw]
			mbase := oc*tt + b*tiles
			for t := 0; t < tiles; t++ {
				// Aᵀ M A: transform the six columns (6→4 rows) straight
				// off the strided frequency planes, then the four rows
				// (6→4 columns) with the transform inlined — see the
				// winoInput comment on inliner budgets.
				base := mbase + t
				for c := 0; c < 6; c++ {
					idx := c*plane + base
					y[c], y[6+c], y[12+c], y[18+c] =
						winoOut1D(m[idx], m[idx+6*plane], m[idx+12*plane], m[idx+18*plane], m[idx+24*plane], m[idx+30*plane])
				}
				ty, tx := t/tw, t%tw
				o := (4*ty)*w + 4*tx
				for r := 0; r < 4; r++ {
					t0, t1, t2, t3, t4, t5 := y[6*r], y[6*r+1], y[6*r+2], y[6*r+3], y[6*r+4], y[6*r+5]
					s := t1 + t2
					d := t1 - t2
					e := t3 + t4
					f := t3 - t4
					orow := och[o+r*w : o+r*w+4]
					orow[0] = t0 + s + e + bv
					orow[1] = d + 2*f + bv
					orow[2] = s + 4*e + bv
					orow[3] = d + 8*f + t5 + bv
				}
			}
		}
	}
}

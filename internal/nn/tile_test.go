package nn_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// tiledNet is one zoo topology compiled at one backend, as the tile tests
// and the sizing sweep see it.
type tiledNet struct {
	name string // topology/backend
	tile int
	run  func(xs []*tensor.T, a *tensor.Arena) [][]float64
	xs   []*tensor.T
}

// tiledNets compiles every zoo topology at f64, f32 and int8.
func tiledNets(t testing.TB) []tiledNet {
	var out []tiledNet
	for _, f := range backendFixtures(t) {
		net64, err := nn.Compile[float64](f.net)
		if err != nil {
			t.Fatal(err)
		}
		net32, err := nn.Compile[float32](f.net)
		if err != nil {
			t.Fatal(err)
		}
		net8, err := f.net.CompileInt8(f.xs[:8])
		if err != nil {
			t.Fatal(err)
		}
		out = append(out,
			tiledNet{f.name + "/f64", net64.Tile(), net64.InferBatch, f.xs},
			tiledNet{f.name + "/f32", net32.Tile(), net32.InferBatch, f.xs},
			tiledNet{f.name + "/int8", net8.Tile(), net8.InferBatch, f.xs})
	}
	return out
}

// wantTiles are the tiles Compile and CompileInt8 derive for the zoo
// topologies: the "tile" column of DESIGN.md §4's sizing table. A change
// to the rule, its budget or a node's scratch moves one of them.
var wantTiles = map[string]int{
	"lenet5/f64": 3, "lenet5/f32": 7, "lenet5/int8": 23,
	"convnet/f64": 2, "convnet/f32": 4, "convnet/int8": 12,
	"resnet20/f64": 2, "resnet20/f32": 4, "resnet20/int8": 4,
	"densenet40/f64": 1, "densenet40/f32": 2, "densenet40/int8": 2,
	"alexnet/f64": 1, "alexnet/f32": 2, "alexnet/int8": 14,
	"resnet34/f64": 1, "resnet34/f32": 3, "resnet34/int8": 3,
}

// TestCompiledTiles pins every zoo topology's tile, per backend.
func TestCompiledTiles(t *testing.T) {
	for _, n := range tiledNets(t) {
		if n.tile != wantTiles[n.name] {
			t.Errorf("%s: tile %d, want %d", n.name, n.tile, wantTiles[n.name])
		}
	}
}

// BenchmarkTileSweep times one forward over the same 32 images walked in
// tiles of t, every zoo topology at every backend, on one warm arena that
// each tile resets — the sweep behind DESIGN.md §4's sizing table. The
// tiles are a fixed ladder plus the net's own Tile. The us/img metric is
// the one the table quotes; take the median over runs:
//
//	go test -run '^$' -bench TileSweep -cpu 1 -benchtime 5x -count 10 ./internal/nn/
func BenchmarkTileSweep(b *testing.B) {
	for _, n := range tiledNets(b) {
		tiles := []int{1, 2, 3, 4, 6, 8, 12, 16, 32}
		if !slices.Contains(tiles, n.tile) {
			tiles = append(tiles, n.tile)
		}
		for _, tile := range tiles {
			b.Run(fmt.Sprintf("%s/t=%d", n.name, tile), func(b *testing.B) {
				a := tensor.NewArena()
				for i := 0; i < b.N; i++ {
					for lo := 0; lo < len(n.xs); lo += tile {
						n.run(n.xs[lo:min(lo+tile, len(n.xs))], a)
						a.Reset()
					}
				}
				b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(n.xs)), "us/img")
			})
		}
	}
}

package dataset

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"repro/internal/nn"
)

// datasetDigests pins, per profile, the SHA-256 of every shipped dataset
// config (digestDataset). The trained members in testdata/zoo and every
// recorded logit were produced from exactly these bits, so any change to
// the generator or to how Generate schedules the splits must reproduce
// them. The digests are of x86 arithmetic: targets whose compiler fuses
// the generator's multiply-adds (arm64, ppc64le, s390x, riscv64) draw
// other bits and skip the test.
var datasetDigests = map[Profile]map[string]string{
	Fast: {
		"synthmnist":    "871969eb69b7279ddb473757ed1e69a9cba1907e0b96ca1125d2b83251ea7be7",
		"synthcifar":    "7079dcaf65baa39f28e18944070f7bfeb43bbf50e9c68ebfe4b47a066499f140",
		"synthimagenet": "d81c4fabe66c2ee97c8e13dab2a6c255c28b35e2e2edafa698e8b192dfd6ae5c",
	},
	Full: {
		"synthmnist":    "10fed477e97f0651446a97254c26b70cef8fa9b52a80124ead62c07fa554ca88",
		"synthcifar":    "362fd1b2d53d09e826587dc77ba7ffb21a67df90b621cc2fdcc3dfadf22d44e4",
		"synthimagenet": "0c5ea480303f200ffc14212041bc52ccc47db663708b3cee270411fa51974289",
	},
}

// digestDataset hashes every split in Train, Val, Test order — each
// sample's shape, pixel bits and label — followed by TestMeta.
func digestDataset(d *Dataset) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, split := range [][]nn.Sample{d.Train(), d.Val, d.Test} {
		put(uint64(len(split)))
		for _, s := range split {
			for _, dim := range s.X.Shape {
				put(uint64(dim))
			}
			for _, v := range s.X.Data {
				put(math.Float64bits(v))
			}
			put(uint64(s.Label))
		}
	}
	put(uint64(len(d.TestMeta)))
	for _, m := range d.TestMeta {
		put(uint64(m.Hard))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestGenerateMatchesCommittedDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" && runtime.GOARCH != "386" {
		t.Skipf("digests are pinned for x86; %s fuses multiply-adds", runtime.GOARCH)
	}
	p := ActiveProfile()
	for name, want := range datasetDigests[p] {
		cfg, ok := ByName(name, p)
		if !ok {
			t.Fatalf("no config %q", name)
		}
		d, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := digestDataset(d); got != want {
			t.Errorf("%s (profile %d): digest %s, want %s", name, p, got, want)
		}
	}
}

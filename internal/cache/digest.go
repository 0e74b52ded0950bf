package cache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
)

// Key addresses one cached prediction: a SHA-256 digest over the system
// fingerprint and the quantized image content. Stable across processes and
// architectures — the byte layout below is fixed little-endian.
type Key [sha256.Size]byte

// String renders the key as lowercase hex (for logs and golden tests).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// Hash64 folds the key into a 64-bit FNV-1a hash — the value the cluster
// layer's consistent-hash ring positions keys by. The key bytes are already
// a uniform SHA-256 digest; FNV keeps ring placement decoupled from the
// digest layout (a digestSchema bump must not silently reshuffle ring
// ownership semantics, only the keys themselves).
func (k Key) Hash64() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range k {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// Fingerprint digests everything about a system's configuration that can
// change its decisions. It is folded into every image key, so any
// configuration change — thresholds, member set or order, preprocessor
// variants, staging — yields disjoint keys and stale predictions can never
// be served. Modeled on Zoo.fingerprint, which plays the same role for
// on-disk network weights.
type Fingerprint [sha256.Size]byte

// String renders the fingerprint as lowercase hex.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:]) }

// digestSchema versions the key byte layout itself: bump it whenever the
// fingerprint or image serialization changes, so caches populated by older
// layouts read as cold rather than wrong. v2 added the per-member backend
// schedule (reduced-precision execution changes decisions); v3 added the
// stage-policy descriptor (an adaptive cascade controller can change stage
// depth and backends per batch).
const digestSchema = "pgmr-cache-v3"

// SystemConfig enumerates the decision-relevant configuration covered by a
// fingerprint.
type SystemConfig struct {
	// Conf and Freq are the decision-engine thresholds (Thr_Conf, Thr_Freq).
	Conf float64
	Freq int
	// Staged and Batch shape RADE staged activation, which determines the
	// Activated count of every decision.
	Staged bool
	Batch  int
	// Members are the variant keys of the member set in priority order
	// (e.g. "ORG", "FlipX", "Preproc#3"). Order matters: it is the RADE
	// activation order.
	Members []string
	// Backends are the per-member numeric execution backends ("f64", "f32",
	// "int8"), index-aligned with Members. Reduced-precision kernels produce
	// slightly different softmax rows, so the backend schedule is
	// decision-relevant. nil/empty means every member runs float64.
	Backends []string
	// Policy describes the stage policy attached to the system, when any: a
	// runtime cascade controller can alter stage depth and per-stage
	// backends, so two systems that differ only in their policy must not
	// share keys. Empty means the static schedule (no policy attached).
	// Note the engine additionally refuses to store policy-degraded batches
	// (see internal/core), so cached entries under a fingerprint are always
	// the reference decisions of that configuration.
	Policy string
	// Salt carries decision-relevant configuration the other fields cannot
	// see. Every served system passes the literal "bits=0" (the retired
	// simulated-precision setting), so keys, persisted segments and cluster
	// fingerprints keep the bytes they were written with.
	Salt string
}

// SystemFingerprint computes the configuration digest. Identical configs
// produce identical fingerprints in every process; changing any field
// changes the fingerprint.
func SystemFingerprint(cfg SystemConfig) Fingerprint {
	h := sha256.New()
	var buf [8]byte
	writeStr := func(s string) {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(s)))
		h.Write(buf[:])
		h.Write([]byte(s))
	}
	writeU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	writeStr(digestSchema)
	writeU64(math.Float64bits(cfg.Conf))
	writeU64(uint64(int64(cfg.Freq)))
	staged := uint64(0)
	if cfg.Staged {
		staged = 1
	}
	writeU64(staged)
	writeU64(uint64(int64(cfg.Batch)))
	writeU64(uint64(len(cfg.Members)))
	for _, m := range cfg.Members {
		writeStr(m)
	}
	writeU64(uint64(len(cfg.Backends)))
	for _, b := range cfg.Backends {
		writeStr(b)
	}
	writeStr(cfg.Policy)
	writeStr(cfg.Salt)
	return Fingerprint(h.Sum(nil))
}

// quantScale is the fixed precision of image quantization: pixels are
// rounded to the nearest multiple of 2^-16 before hashing, so re-decoded
// frames that differ only below the precision the networks can perceive
// share one key. The range is unbounded (no clamping) so any two inputs
// that quantize differently get distinct keys.
const quantScale = 1 << 16

// quantize maps one pixel to its fixed-precision bucket. Non-finite values
// get dedicated sentinels so NaN≠Inf≠-Inf≠finite.
func quantize(v float64) int64 {
	switch {
	case math.IsNaN(v):
		return math.MaxInt64
	case math.IsInf(v, 1):
		return math.MaxInt64 - 1
	case math.IsInf(v, -1):
		return math.MinInt64 + 1
	}
	q := math.Round(v * quantScale)
	// Clamp far inside the int64 range: float64→int64 conversion of an
	// out-of-range value is implementation-defined.
	const maxQ = float64(1 << 62)
	if q > maxQ {
		return math.MaxInt64 - 1
	}
	if q < -maxQ {
		return math.MinInt64 + 1
	}
	return int64(q)
}

// ImageKey computes the content address of one image under the given
// system fingerprint: SHA-256 over (fingerprint, shape, quantized pixels).
func ImageKey(fp Fingerprint, shape []int, pixels []float64) Key {
	h := sha256.New()
	h.Write(fp[:])
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(len(shape)))
	h.Write(buf[:])
	for _, d := range shape {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(d)))
		h.Write(buf[:])
	}
	// Hash pixels through a chunk buffer to amortize hash.Write call
	// overhead without allocating a full copy of the image.
	var chunk [512]byte
	n := 0
	for _, p := range pixels {
		binary.LittleEndian.PutUint64(chunk[n:], uint64(quantize(p)))
		n += 8
		if n == len(chunk) {
			h.Write(chunk[:])
			n = 0
		}
	}
	if n > 0 {
		h.Write(chunk[:n])
	}
	return Key(h.Sum(nil))
}

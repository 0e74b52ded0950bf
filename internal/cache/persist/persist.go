// Package persist implements the L2 disk tier of the prediction cache: a
// crash-safe, append-only, first-byte-sharded segment store keyed by the
// same SHA-256 content digests as the in-memory L1 (internal/cache), so a
// warmed cache survives restarts and deploys instead of starting cold.
//
// Design (DESIGN.md §11):
//
//   - Segment files: one append-only file per key[0]-derived shard, holding
//     length-prefixed records with a per-record CRC-32C and the system
//     fingerprint embedded, so a stale-config or bit-flipped entry can never
//     be served (segment.go).
//   - Write-behind flushing: Add enqueues onto a bounded channel consumed
//     by a single flusher goroutine that coalesces entries into batches
//     (size- and ticker-driven), appends each shard's batch in one write and
//     fsyncs once per batch. When the queue is full, new entries are dropped
//     (lossy mode) rather than ever blocking the serve path (flusher.go).
//   - Crash-safe recovery: Open scans every segment sequentially, rebuilds
//     the in-memory index (last record per key wins), truncates a torn tail
//     record, skips CRC-corrupt records and rejects fingerprint mismatches.
//   - Size-budgeted compaction: when a shard outgrows its budget or
//     accumulates dead bytes, live records are rewritten into a fresh
//     segment (oldest entries dropped if still over budget) and the file is
//     atomically renamed into place.
//
// The store implements the same Get/Add surface as cache.Cache, so
// cache.Tiered can slot it under the sharded LRU with promotion on hit.
package persist

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
)

// Codec converts cached values to and from the bytes stored in segment
// records. Decode must reconstruct a value deeply equal to the encoded one
// — L2-served predictions are required to be bit-identical to freshly
// computed ones.
type Codec[V any] struct {
	Encode func(V) ([]byte, error)
	Decode func([]byte) (V, error)
}

// Config parameterizes Open.
type Config struct {
	// Dir is the segment directory; created if missing. Required.
	Dir string
	// MaxBytes is the total disk budget across all shards; compaction keeps
	// each shard near MaxBytes/Shards, dropping the oldest live entries when
	// rewriting alone is not enough. <= 0 selects 256 MiB.
	MaxBytes int64
	// Shards is the segment-file count, rounded up to a power of two capped
	// at 256; records map to shards by the first key byte. <= 0 selects 16.
	Shards int
	// TTL stamps an expiry on every entry at enqueue time; expired entries
	// read as misses and are dropped by compaction. 0 disables expiry.
	TTL time.Duration
	// FlushEvery is the write-behind coalescing interval: a partial batch is
	// flushed when this much time passes after an enqueue. <= 0 selects 50ms.
	FlushEvery time.Duration
	// MaxBatch caps entries per flush batch (one fsync amortized over the
	// batch). <= 0 selects 256.
	MaxBatch int
	// QueueDepth bounds the write-behind queue. A full queue drops new
	// entries (counted in Stats.Dropped) instead of blocking the serve path.
	// <= 0 selects 1024.
	QueueDepth int
	// MaxRecord bounds one framed record on disk; larger values are refused
	// at enqueue and treated as torn frames by the recovery scan (a hostile
	// length prefix must not drive a huge allocation). <= 0 selects 4 MiB.
	MaxRecord int
	// Now is injectable for tests; nil selects time.Now.
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.MaxBytes <= 0 {
		c.MaxBytes = 256 << 20
	}
	n := 1
	if c.Shards <= 0 {
		c.Shards = 16
	}
	for n < c.Shards && n < 256 {
		n <<= 1
	}
	c.Shards = n
	if c.TTL < 0 {
		c.TTL = 0
	}
	if c.FlushEvery <= 0 {
		c.FlushEvery = 50 * time.Millisecond
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.MaxRecord <= 0 {
		c.MaxRecord = 4 << 20
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Stats is a point-in-time aggregate of the store counters.
type Stats struct {
	// Hits and Misses count Get probes (an expired or unreadable entry is a
	// miss).
	Hits, Misses uint64
	// Expired counts entries that read as misses because their TTL passed.
	Expired uint64
	// Flushed counts entries durably appended (written + fsynced + indexed);
	// Dropped counts entries lost to write-behind backpressure or oversized
	// encodings — the lossy mode that keeps Add non-blocking.
	Flushed, Dropped uint64
	// Backlog is the current write-behind queue length (acked once flushed).
	Backlog int
	// Recovered counts entries rebuilt into the index by the open-time scan;
	// Truncated counts torn tail frames cut off; Corrupt counts CRC/decode
	// failures (skipped at open, evicted on read); Stale counts records
	// rejected for a fingerprint mismatch.
	Recovered, Truncated, Corrupt, Stale uint64
	// Evicted counts live entries dropped by size-budgeted compaction;
	// Compactions counts segment rewrites.
	Evicted, Compactions uint64
	// WriteErrors counts failed flush writes (the batch is dropped).
	WriteErrors uint64
	// Entries and LiveBytes describe the indexed population; DiskBytes is
	// the segment-file total including dead (superseded/expired) records.
	Entries   int
	LiveBytes int64
	DiskBytes int64
}

// ref locates one live record inside its shard's segment file.
type ref struct {
	off     int64
	len     int32
	expires int64
}

// shard is one segment file plus its index. mu guards everything including
// reads: compaction can swap the file under a reader otherwise.
type shard struct {
	mu   sync.Mutex
	f    *os.File
	idx  map[cache.Key]ref
	size int64 // append offset == file size
	live int64 // bytes of records reachable through idx
}

// Store is the L2 disk tier. All methods are safe for concurrent use. Get
// reads synchronously; Add is asynchronous write-behind and may drop under
// backpressure — the store is a cache, not a database.
type Store[V any] struct {
	cfg      Config
	fp       cache.Fingerprint
	codec    Codec[V]
	shards   []shard
	mask     int
	perShard int64

	pending  chan pendingEntry[V]
	flushReq chan chan error
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
	backlog  atomic.Int64
	failed   atomic.Bool // a crash-injected or fatal flusher exit

	hits, misses, expired atomic.Uint64
	flushed, dropped      atomic.Uint64
	recovered, truncated  atomic.Uint64
	corrupt, stale        atomic.Uint64
	evicted, compactions  atomic.Uint64
	writeErrors           atomic.Uint64

	// testPartialWrite, when set to n >= 0 by crash tests, makes the next
	// shard flush write only n bytes of its batch, skip the fsync and index
	// update, and kill the flusher — an injected mid-batch crash.
	testPartialWrite atomic.Int64
}

type pendingEntry[V any] struct {
	key     cache.Key
	val     V
	expires int64
}

// segName returns the segment filename for one shard.
func segName(i int) string { return fmt.Sprintf("seg-%02x.l2", i) }

// Open creates or reopens a store in cfg.Dir bound to the given system
// fingerprint: segment files are scanned, torn tails truncated, and the
// index rebuilt before the write-behind flusher starts. Records written
// under a different fingerprint stay on disk (until compaction) but are
// never indexed or served.
func Open[V any](cfg Config, fp cache.Fingerprint, codec Codec[V]) (*Store[V], error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("persist: Config.Dir is required")
	}
	if codec.Encode == nil || codec.Decode == nil {
		return nil, fmt.Errorf("persist: Codec.Encode and Codec.Decode are required")
	}
	cfg = cfg.withDefaults()
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	perShard := cfg.MaxBytes / int64(cfg.Shards)
	if min := int64(cfg.MaxRecord); perShard < min {
		perShard = min
	}
	s := &Store[V]{
		cfg:      cfg,
		fp:       fp,
		codec:    codec,
		shards:   make([]shard, cfg.Shards),
		mask:     cfg.Shards - 1,
		perShard: perShard,
		pending:  make(chan pendingEntry[V], cfg.QueueDepth),
		flushReq: make(chan chan error),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	s.testPartialWrite.Store(-1) // -1 = crash injection disarmed
	// Clear leftovers from a compaction interrupted before its rename.
	if tmps, err := filepath.Glob(filepath.Join(cfg.Dir, "seg-*.l2.tmp")); err == nil {
		for _, t := range tmps {
			os.Remove(t)
		}
	}
	for i := range s.shards {
		if err := s.openShard(i); err != nil {
			s.closeFiles()
			return nil, err
		}
	}
	go s.runFlusher()
	return s, nil
}

// shardFor maps a key to its shard by the first digest byte.
func (s *Store[V]) shardFor(k cache.Key) *shard { return &s.shards[int(k[0])&s.mask] }

// openShard opens (creating if needed) one segment file and runs the
// recovery scan over it: sequential decode, last record per key wins,
// fingerprint mismatches rejected, CRC-corrupt frames skipped, and a torn
// tail truncated at the start of the bad frame.
func (s *Store[V]) openShard(i int) error {
	sh := &s.shards[i]
	path := filepath.Join(s.cfg.Dir, segName(i))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("persist: %w", err)
	}
	sh.f = f
	sh.idx = make(map[cache.Key]ref)
	now := s.cfg.Now().UnixNano()

	data := make([]byte, fi.Size())
	if _, err := f.ReadAt(data, 0); err != nil && fi.Size() > 0 {
		return fmt.Errorf("persist: scanning %s: %w", segName(i), err)
	}
	off := int64(0)
	for off < int64(len(data)) {
		rec, n, err := decodeRecord(data[off:], s.cfg.MaxRecord)
		switch err {
		case nil:
		case errCorruptRecord:
			// Intact frame, bad payload: reject the record, keep scanning.
			s.corrupt.Add(1)
			off += int64(n)
			continue
		default: // errTornRecord
			// Nothing after a torn frame can be trusted; cut it off so the
			// next append starts on a clean boundary.
			if terr := f.Truncate(off); terr != nil {
				return fmt.Errorf("persist: truncating torn tail of %s: %w", segName(i), terr)
			}
			s.truncated.Add(1)
			data = data[:off]
			continue
		}
		switch {
		case rec.fp != s.fp:
			s.stale.Add(1)
		case rec.expires != 0 && now > rec.expires:
			// Dead on arrival; compaction will drop the bytes.
		default:
			if old, ok := sh.idx[rec.key]; ok {
				sh.live -= int64(old.len)
			} else {
				s.recovered.Add(1)
			}
			sh.idx[rec.key] = ref{off: off, len: int32(n), expires: rec.expires}
			sh.live += int64(n)
		}
		off += int64(n)
	}
	sh.size = off
	return nil
}

// Get returns the value stored for k. The record is re-verified on every
// read — CRC, key and fingerprint — so a bit flipped on disk after the
// recovery scan still reads as a miss, never as a wrong value.
func (s *Store[V]) Get(k cache.Key) (V, bool) {
	var zero V
	sh := s.shardFor(k)
	sh.mu.Lock()
	r, ok := sh.idx[k]
	if !ok {
		sh.mu.Unlock()
		s.misses.Add(1)
		return zero, false
	}
	if r.expires != 0 && s.cfg.Now().UnixNano() > r.expires {
		delete(sh.idx, k)
		sh.live -= int64(r.len)
		sh.mu.Unlock()
		s.expired.Add(1)
		s.misses.Add(1)
		return zero, false
	}
	buf := make([]byte, r.len)
	_, rerr := sh.f.ReadAt(buf, r.off)
	var rec record
	var n int
	var derr error
	if rerr == nil {
		rec, n, derr = decodeRecord(buf, s.cfg.MaxRecord)
	}
	if rerr != nil || derr != nil || n != int(r.len) || rec.key != k || rec.fp != s.fp {
		delete(sh.idx, k)
		sh.live -= int64(r.len)
		sh.mu.Unlock()
		s.corrupt.Add(1)
		s.misses.Add(1)
		return zero, false
	}
	v, err := s.codec.Decode(rec.val)
	sh.mu.Unlock()
	if err != nil {
		sh.mu.Lock()
		if cur, ok := sh.idx[k]; ok && cur == r {
			delete(sh.idx, k)
			sh.live -= int64(r.len)
		}
		sh.mu.Unlock()
		s.corrupt.Add(1)
		s.misses.Add(1)
		return zero, false
	}
	s.hits.Add(1)
	return v, true
}

// Add enqueues the entry for write-behind flushing and returns immediately.
// When the queue is full the entry is dropped (lossy mode): the serve path
// must never block on the disk tier. Durability is batched — an entry is on
// disk only after the flusher's next fsync (see Flush).
func (s *Store[V]) Add(k cache.Key, v V) {
	select {
	case <-s.done:
		// The flusher is gone (Close or crash): nobody will drain the queue.
		s.dropped.Add(1)
		return
	default:
	}
	if s.failed.Load() {
		s.dropped.Add(1)
		return
	}
	var expires int64
	if s.cfg.TTL > 0 {
		expires = s.cfg.Now().Add(s.cfg.TTL).UnixNano()
	}
	select {
	case s.pending <- pendingEntry[V]{key: k, val: v, expires: expires}:
		s.backlog.Add(1)
	default:
		s.dropped.Add(1)
	}
}

// Flush synchronously drains the write-behind queue and fsyncs: every entry
// accepted by Add before the call is durable (or counted dropped) when it
// returns. Used by graceful shutdown and tests; the serve path never calls
// it.
func (s *Store[V]) Flush() error {
	ack := make(chan error, 1)
	select {
	case s.flushReq <- ack:
	case <-s.done:
		return s.exitErr()
	}
	select {
	case err := <-ack:
		return err
	case <-s.done:
		return s.exitErr()
	}
}

func (s *Store[V]) exitErr() error {
	if s.failed.Load() {
		return fmt.Errorf("persist: flusher died (injected crash or write failure)")
	}
	return fmt.Errorf("persist: store is closed")
}

// Close stops the flusher after a final drain+fsync and closes the segment
// files. Add calls after Close are dropped.
func (s *Store[V]) Close() error {
	s.stopOnce.Do(func() { close(s.stop) })
	<-s.done
	s.closeFiles()
	if s.failed.Load() {
		return fmt.Errorf("persist: flusher died before close; tail entries may be lost")
	}
	return nil
}

func (s *Store[V]) closeFiles() {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		if sh.f != nil {
			sh.f.Close()
			sh.f = nil
		}
		sh.mu.Unlock()
	}
}

// Stats aggregates the store counters.
func (s *Store[V]) Stats() Stats {
	st := Stats{
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Expired:     s.expired.Load(),
		Flushed:     s.flushed.Load(),
		Dropped:     s.dropped.Load(),
		Backlog:     int(s.backlog.Load()),
		Recovered:   s.recovered.Load(),
		Truncated:   s.truncated.Load(),
		Corrupt:     s.corrupt.Load(),
		Stale:       s.stale.Load(),
		Evicted:     s.evicted.Load(),
		Compactions: s.compactions.Load(),
		WriteErrors: s.writeErrors.Load(),
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		st.Entries += len(sh.idx)
		st.LiveBytes += sh.live
		st.DiskBytes += sh.size
		sh.mu.Unlock()
	}
	return st
}

// Len reports the number of indexed entries.
func (s *Store[V]) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += len(sh.idx)
		sh.mu.Unlock()
	}
	return n
}

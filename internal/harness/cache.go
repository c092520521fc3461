package harness

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"

	"bluegs/internal/scenario"
	"bluegs/internal/segmentation"
)

// DefaultCacheSalt is the code-version salt folded into every run
// fingerprint. Bump it in any PR that changes simulation semantics (the
// kernel, the scheduler, admission, traffic timing, …): the new salt
// invalidates every previously cached result at once, so a stale disk
// cache can never replay results the current code would not produce.
// sim-v5: scatternet engine (multi-piconet specs, canonical rendering
// v3 with piconet arrays + interference parameters, per-piconet cached
// results) — cached single-piconet results can never alias scatternet
// runs.
// sim-v6: interference-aware admission (canonical rendering v4 with the
// derating knobs, re-derate on churn, retry-budget error terms) — derated
// runs can never replay results computed without the derating path.
// sim-v7: fault injection and self-healing (link-outage gating in the
// piconet engine, supervision timeouts, degrade/handoff recovery,
// master crashes, flow fates in results) — pre-fault cached results can
// never replay runs the fault-aware engine would produce, and the new
// on-disk footer format invalidates footerless entries wholesale.
// sim-v8: bridge nodes and end-to-end routes (residency-gated polls and
// scheduling, store-and-forward hop handoff, per-hop budget-split
// admission with duty-cycle derating, renegotiate_flow, route results) —
// pre-bridge cached results can never replay runs the route-aware runner
// would produce.
//
// The salt tracks what a result is, not how it is stored: a change to
// the entry format alone bumps cacheFooterMagic instead, which turns
// older entries into clean misses without re-keying any run.
const DefaultCacheSalt = "sim-v8"

// CacheBackend is the persistent half of a RunCache: a keyed store of
// raw cache entries (a gob record of per-piconet results plus a BGC2
// integrity footer, the EncodeResultEntry form). The RunCache owns the
// encoding, the footer verification and the in-memory LRU; a backend
// only moves bytes, which is what lets one implementation serve a local
// directory (DirBackend) and another a fabric coordinator's HTTP cache
// endpoint (internal/fabric), so workers need no shared filesystem.
// Backends must be safe for concurrent use — including concurrent use
// from several processes, where the content-addressed keys make racing
// writers of the same entry harmless.
type CacheBackend interface {
	// Get returns the raw entry stored under key. A missing entry's
	// error must satisfy errors.Is(err, fs.ErrNotExist).
	Get(key string) ([]byte, error)
	// Put stores an entry atomically: a concurrent reader must observe
	// either no entry or a complete one, never a partial write.
	Put(key string, entry []byte) error
	// Has reports whether an entry exists without reading it.
	Has(key string) (bool, error)
	// Delete removes an entry; deleting a missing entry is not an error.
	Delete(key string) error
}

// CacheConfig tunes a RunCache.
type CacheConfig struct {
	// Dir, when non-empty, backs the cache with one gob file per run
	// under this directory (created if missing). Entries evicted from
	// the in-memory LRU remain readable from disk. Shorthand for
	// Backend: NewDirBackend(Dir).
	Dir string
	// Backend, when set, is the persistent store behind the in-memory
	// LRU and wins over Dir.
	Backend CacheBackend
	// MaxEntries bounds the in-memory LRU (default 4096 results).
	MaxEntries int
	// Salt is the code-version salt (default DefaultCacheSalt). Sweeps
	// that want isolated namespaces in a shared directory may extend it.
	Salt string
}

// CacheStats is a point-in-time snapshot of cache effectiveness counters.
// Its String rendering is the one line the cmd tools print on stderr and
// the CI cache smoke step greps.
type CacheStats struct {
	// Hits counts Get calls served (memory or disk); DiskHits the subset
	// that had to be read back from the directory.
	Hits     uint64
	DiskHits uint64
	// Misses counts Get calls that found nothing.
	Misses uint64
	// Stores counts Put calls accepted.
	Stores uint64
	// DupPuts counts Put calls for a key the cache already held — a
	// clean no-op, because content-addressed keys make the incoming
	// entry identical to the stored one. Under a shared directory two
	// processes completing the same cell book the second write here
	// instead of rewriting (or corrupting) the entry.
	DupPuts uint64
	// Corrupt counts on-disk entries whose integrity footer failed
	// verification; each was deleted and its Get served as a miss (so the
	// fresh result rewrites the entry).
	Corrupt uint64
}

// String renders the counters as "H/T runs served from cache (D from
// disk, S stored)". Duplicate-put and corruption drops are appended only
// when they happened, keeping the healthy-cache line byte-stable for log
// greps.
func (s CacheStats) String() string {
	out := fmt.Sprintf("%d/%d runs served from cache (%d from disk, %d stored)",
		s.Hits, s.Hits+s.Misses, s.DiskHits, s.Stores)
	if s.DupPuts > 0 {
		out += fmt.Sprintf(", %d duplicate puts ignored", s.DupPuts)
	}
	if s.Corrupt > 0 {
		out += fmt.Sprintf(", %d corrupt dropped", s.Corrupt)
	}
	return out
}

// RunCache is a content-addressed store of completed simulation results,
// keyed by the SHA-256 fingerprint of (scenario spec incl. seed and
// horizon, code-version salt). A fixed-size in-memory LRU fronts an
// optional on-disk gob store, so re-running a sweep after changing one
// cell — or re-rendering reports — replays the unchanged cells instantly,
// across processes when a directory is configured.
//
// Cached results are shared: callers must treat them as read-only, which
// matches the contract scenario.Result already states for its delay
// statistics. Runs that carry a Tracer are never served from or written
// to the cache (their side effects cannot be replayed).
type RunCache struct {
	cfg     CacheConfig
	backend CacheBackend // nil when the cache is memory-only

	mu      sync.Mutex
	entries map[string]*list.Element
	lru     *list.List // front = most recently used; values are *cacheEntry
	stats   CacheStats
}

type cacheEntry struct {
	key string
	res *scenario.Result
}

// cacheRecord is the on-disk form of a result. It holds each value once:
// the per-piconet results, the admission log, the routes and the run
// counters. The Result-level aggregates (Flows, SlaveKbps, SCOKbps, Slots,
// the poll counters, Admitted) are not stored — decodeEntry rebuilds them
// with scenario.Rollup, the function both collectors use, so a replayed
// result is shaped exactly like a fresh one. The Spec is not stored
// either: the cache re-attaches it from the request on every hit (it
// contains interface-valued fields and is, by construction of the key,
// already known to the caller). Delay statistics travel in the stats
// package's flat encodings inside this gob record.
type cacheRecord struct {
	Key        string
	Elapsed    time.Duration
	Events     uint64
	Admissions []scenario.AdmissionRecord
	// Piconets carries the per-piconet results (one entry for flat
	// single-piconet specs).
	Piconets []scenario.PiconetResult
	// Routes carries the end-to-end results of bridged multi-hop flows.
	Routes []scenario.RouteResult
}

func init() {
	// Concrete segmentation policies may travel inside
	// admission.Request.Policy interface fields.
	gob.Register(segmentation.BestFit{})
	gob.Register(segmentation.GreedyLargest{})
}

// NewRunCache creates a cache; when cfg.Dir is set the directory is
// created eagerly so configuration errors surface before a sweep starts.
func NewRunCache(cfg CacheConfig) (*RunCache, error) {
	if cfg.MaxEntries <= 0 {
		cfg.MaxEntries = 4096
	}
	if cfg.Salt == "" {
		cfg.Salt = DefaultCacheSalt
	}
	backend := cfg.Backend
	if backend == nil && cfg.Dir != "" {
		b, err := NewDirBackend(cfg.Dir)
		if err != nil {
			return nil, err
		}
		backend = b
	}
	return &RunCache{
		cfg:     cfg,
		backend: backend,
		entries: make(map[string]*list.Element),
		lru:     list.New(),
	}, nil
}

// CacheKey returns the content address of a run: the SHA-256 over the
// cache salt and the spec's canonical rendering (scenario.Spec.Canonical,
// the normalized v2 JSON of the spec), hex encoded. Every
// party of a distributed sweep — caches, fabric coordinator, workers —
// derives keys through this one function, which is what makes results
// location-independent.
func CacheKey(salt string, spec scenario.Spec) string {
	h := sha256.New()
	fmt.Fprintf(h, "bluegs/run\n%s\n%s", salt, spec.Canonical())
	return hex.EncodeToString(h.Sum(nil))
}

// Key returns the content address of a run under this cache's salt.
func (c *RunCache) Key(spec scenario.Spec) string {
	return CacheKey(c.cfg.Salt, spec)
}

// Salt returns the cache's code-version salt.
func (c *RunCache) Salt() string { return c.cfg.Salt }

// Get returns the cached result of the spec, if present, with the spec
// re-attached. The in-memory LRU is consulted first, then the directory.
func (c *RunCache) Get(spec scenario.Spec) (*scenario.Result, bool) {
	return c.getByKey(c.Key(spec), spec)
}

// getByKey is Get with a precomputed key: the executor hashes the spec
// once, before the simulation runs, so a stateful Radio model mutated by
// the run cannot skew the store key away from the lookup key.
func (c *RunCache) getByKey(key string, spec scenario.Spec) (*scenario.Result, bool) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		res := el.Value.(*cacheEntry).res
		c.stats.Hits++
		c.mu.Unlock()
		return withSpec(res, spec), true
	}
	c.mu.Unlock()

	if c.backend == nil {
		c.miss()
		return nil, false
	}
	res, err := c.readBackend(key)
	if err != nil {
		c.miss()
		return nil, false
	}
	c.mu.Lock()
	c.insertLocked(key, res)
	c.stats.Hits++
	c.stats.DiskHits++
	c.mu.Unlock()
	return withSpec(res, spec), true
}

// Put stores a completed result under the spec's key, in memory and — when
// a backend is configured — persistently (directories write atomically via
// a temp file and rename). Putting a key the cache already holds is a
// clean no-op counted in Stats().DupPuts: content-addressed keys make the
// incoming entry identical to the stored one, so concurrent sweeps over a
// shared directory never rewrite each other's entries.
func (c *RunCache) Put(spec scenario.Spec, res *scenario.Result) error {
	return c.putByKey(c.Key(spec), res)
}

// putByKey is Put with a precomputed key (see getByKey).
func (c *RunCache) putByKey(key string, res *scenario.Result) error {
	if res == nil {
		return nil
	}
	c.mu.Lock()
	_, dup := c.entries[key]
	c.insertLocked(key, res)
	c.mu.Unlock()
	if !dup && c.backend != nil {
		// Another process may have completed the identical run already;
		// leave its (identical) entry in place. Two writers racing past
		// this check both write — harmless, the write is atomic and the
		// content identical.
		if ok, err := c.backend.Has(key); err == nil && ok {
			dup = true
		}
	}
	c.mu.Lock()
	if dup {
		c.stats.DupPuts++
	} else {
		c.stats.Stores++
	}
	c.mu.Unlock()
	if dup || c.backend == nil {
		return nil
	}
	return c.writeBackend(key, res)
}

// Stats returns a snapshot of the effectiveness counters.
func (c *RunCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Len returns the number of in-memory entries.
func (c *RunCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

func (c *RunCache) miss() {
	c.mu.Lock()
	c.stats.Misses++
	c.mu.Unlock()
}

func (c *RunCache) insertLocked(key string, res *scenario.Result) {
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).res = res
		c.lru.MoveToFront(el)
		return
	}
	c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, res: res})
	for c.lru.Len() > c.cfg.MaxEntries {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
	}
}

// The on-disk entry layout is a gob cacheRecord payload followed by a
// fixed integrity footer: magic, payload length and payload CRC-32
// (IEEE). A truncated copy, a partial write that survived a crash, or bit
// rot all fail the footer check; the entry is then deleted and the lookup
// degrades to a miss, so the fresh result rewrites it.
//
// The magic names the entry format. A change to the record layout or to
// the stats encodings inside it bumps the magic (not DefaultCacheSalt,
// which tracks result semantics), so entries of an older format fail the
// footer check and become clean misses.
const cacheFooterMagic = "BGC2"

const cacheFooterSize = len(cacheFooterMagic) + 8

// cacheFooter renders the footer for a payload.
func cacheFooter(payload []byte) []byte {
	f := make([]byte, cacheFooterSize)
	copy(f, cacheFooterMagic)
	binary.LittleEndian.PutUint32(f[len(cacheFooterMagic):], uint32(len(payload)))
	binary.LittleEndian.PutUint32(f[len(cacheFooterMagic)+4:], crc32.ChecksumIEEE(payload))
	return f
}

// checkFooter verifies a raw entry and returns its gob payload.
func checkFooter(data []byte) ([]byte, error) {
	if len(data) < cacheFooterSize {
		return nil, fmt.Errorf("harness: cache entry truncated (%d bytes)", len(data))
	}
	payload, f := data[:len(data)-cacheFooterSize], data[len(data)-cacheFooterSize:]
	if string(f[:len(cacheFooterMagic)]) != cacheFooterMagic {
		return nil, fmt.Errorf("harness: cache entry missing integrity footer")
	}
	if n := binary.LittleEndian.Uint32(f[len(cacheFooterMagic):]); n != uint32(len(payload)) {
		return nil, fmt.Errorf("harness: cache entry length %d, footer says %d", len(payload), n)
	}
	if sum := binary.LittleEndian.Uint32(f[len(cacheFooterMagic)+4:]); sum != crc32.ChecksumIEEE(payload) {
		return nil, fmt.Errorf("harness: cache entry checksum mismatch")
	}
	return payload, nil
}

// EncodeResultEntry renders a result as a raw cache entry: the gob
// payload of its cacheRecord (per-piconet results, admission log, routes
// and counters, with delay statistics in flat stats bytes) followed by
// the integrity footer; DecodeResultEntry rolls the Result-level
// aggregates back up. This is the byte form backends store, the fabric
// coordinator journals, and workers ship over the wire — one encoding
// everywhere, so any party can verify any entry with the same footer
// check.
func EncodeResultEntry(key string, res *scenario.Result) ([]byte, error) {
	rec := cacheRecord{
		Key:        key,
		Elapsed:    res.Elapsed,
		Events:     res.Events,
		Admissions: res.Admissions,
		Piconets:   res.Piconets,
		Routes:     res.Routes,
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(rec); err != nil {
		return nil, fmt.Errorf("harness: cache encode %s: %w", key, err)
	}
	buf.Write(cacheFooter(buf.Bytes()))
	return buf.Bytes(), nil
}

// decodeEntry verifies and decodes a raw cache entry into a spec-less
// result (callers attach their spec via withSpec).
func decodeEntry(key string, entry []byte) (*scenario.Result, error) {
	payload, err := checkFooter(entry)
	if err != nil {
		return nil, err
	}
	var rec cacheRecord
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&rec); err != nil {
		return nil, fmt.Errorf("harness: cache decode %s: %w", key, err)
	}
	if rec.Key != key {
		return nil, fmt.Errorf("harness: cache entry %s holds key %s", key, rec.Key)
	}
	res := &scenario.Result{
		Elapsed:    rec.Elapsed,
		Events:     rec.Events,
		Admissions: rec.Admissions,
		Piconets:   rec.Piconets,
		Routes:     rec.Routes,
	}
	scenario.Rollup(res)
	return res, nil
}

// DecodeResultEntry verifies a raw cache entry (footer and key) and
// decodes it, attaching the caller's spec exactly as a cache hit would.
func DecodeResultEntry(key string, entry []byte, spec scenario.Spec) (*scenario.Result, error) {
	res, err := decodeEntry(key, entry)
	if err != nil {
		return nil, err
	}
	return withSpec(res, spec), nil
}

// dropCorrupt deletes a failed entry and books the corruption.
func (c *RunCache) dropCorrupt(key string) {
	if c.backend != nil {
		c.backend.Delete(key)
	}
	c.mu.Lock()
	c.stats.Corrupt++
	c.mu.Unlock()
}

func (c *RunCache) readBackend(key string) (*scenario.Result, error) {
	data, err := c.backend.Get(key)
	if err != nil {
		return nil, err
	}
	res, err := decodeEntry(key, data)
	if err != nil {
		// A footer failure means truncation or bit rot; a verified
		// footer with a failed decode means an incompatible record
		// schema. Either way the entry can never be read, only
		// rewritten — drop it and degrade to a miss.
		c.dropCorrupt(key)
		return nil, err
	}
	return res, nil
}

func (c *RunCache) writeBackend(key string, res *scenario.Result) error {
	entry, err := EncodeResultEntry(key, res)
	if err != nil {
		return err
	}
	return c.backend.Put(key, entry)
}

// GetEntry returns the raw entry stored under key — footer included,
// verified — from the backend. This is the read half of the entry-level
// API the fabric coordinator serves over /cache/entry: entries move
// between processes as opaque verified bytes, never re-encoded. A
// memory-only cache (no backend) reports every key missing.
func (c *RunCache) GetEntry(key string) ([]byte, error) {
	if c.backend == nil {
		return nil, fs.ErrNotExist
	}
	data, err := c.backend.Get(key)
	if err != nil {
		return nil, err
	}
	if _, err := checkFooter(data); err != nil {
		c.dropCorrupt(key)
		return nil, fs.ErrNotExist
	}
	return data, nil
}

// PutEntry stores a raw entry under key after verifying its footer,
// refusing corrupt bytes at the door. Like Put, storing a key the
// backend already holds is a clean no-op counted in Stats().DupPuts.
// Requires a backend: entry-level callers (the fabric) move persistent
// bytes, which a memory-only cache cannot hold.
func (c *RunCache) PutEntry(key string, entry []byte) error {
	if c.backend == nil {
		return fmt.Errorf("harness: PutEntry requires a cache backend")
	}
	if _, err := checkFooter(entry); err != nil {
		return err
	}
	if ok, err := c.backend.Has(key); err == nil && ok {
		c.mu.Lock()
		c.stats.DupPuts++
		c.mu.Unlock()
		return nil
	}
	if err := c.backend.Put(key, entry); err != nil {
		return err
	}
	c.mu.Lock()
	c.stats.Stores++
	c.mu.Unlock()
	return nil
}

// HasEntry reports whether the backend holds an entry for key.
func (c *RunCache) HasEntry(key string) (bool, error) {
	if c.backend == nil {
		return false, nil
	}
	return c.backend.Has(key)
}

// DeleteEntry removes an entry from the backend (missing is not an
// error) and drops any in-memory copy.
func (c *RunCache) DeleteEntry(key string) error {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.lru.Remove(el)
		delete(c.entries, key)
	}
	c.mu.Unlock()
	if c.backend == nil {
		return nil
	}
	return c.backend.Delete(key)
}

// DirBackend stores one entry file per key under a directory — the
// CacheBackend behind CacheConfig.Dir. Writes go to a temp file in the
// same directory and rename into place, so concurrent readers (and
// concurrent writers in other processes) observe only absent or complete
// entries.
type DirBackend struct {
	dir string
}

// NewDirBackend creates the directory if missing so configuration errors
// surface before a sweep starts.
func NewDirBackend(dir string) (*DirBackend, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("harness: cache dir: %w", err)
	}
	return &DirBackend{dir: dir}, nil
}

func (b *DirBackend) path(key string) string {
	return filepath.Join(b.dir, key+".run.gob")
}

// Get reads the entry file for key.
func (b *DirBackend) Get(key string) ([]byte, error) {
	return os.ReadFile(b.path(key))
}

// Put writes the entry atomically via temp file + rename.
func (b *DirBackend) Put(key string, entry []byte) error {
	tmp, err := os.CreateTemp(b.dir, key+".tmp*")
	if err != nil {
		return fmt.Errorf("harness: cache write: %w", err)
	}
	if _, err := tmp.Write(entry); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("harness: cache write: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("harness: cache write: %w", err)
	}
	if err := os.Rename(tmp.Name(), b.path(key)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("harness: cache write: %w", err)
	}
	return nil
}

// Has stats the entry file.
func (b *DirBackend) Has(key string) (bool, error) {
	_, err := os.Stat(b.path(key))
	if err == nil {
		return true, nil
	}
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	return false, err
}

// Delete removes the entry file; missing entries are not an error.
func (b *DirBackend) Delete(key string) error {
	if err := os.Remove(b.path(key)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return nil
}

// withSpec returns a shallow copy of the cached result carrying the
// caller's spec — defaulted, because that is the spec a fresh run stores
// (scenario.Run defaults before collecting), so reports label cached
// replays byte-identically to fresh runs.
func withSpec(res *scenario.Result, spec scenario.Spec) *scenario.Result {
	out := *res
	out.Spec = spec.WithDefaults()
	return &out
}

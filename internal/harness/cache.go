package harness

import (
	"crypto/sha256"
	"encoding/binary"
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

// CacheConfig configures a RunCache.
type CacheConfig struct {
	// Dir holds one entry file per run (created if missing); it is
	// required. Several processes may share the directory: writes go to
	// a temp file and rename into place, so a reader sees either no
	// entry or a complete one, and the content-addressed keys make
	// racing writers of one entry harmless.
	Dir string
}

// CacheStats is a point-in-time snapshot of cache effectiveness counters.
// Its String rendering is the one line the cmd tools print on stderr and
// the CI cache smoke step greps.
type CacheStats struct {
	// Hits counts Get calls served. Every hit is read from the
	// directory, so DiskHits always equals Hits; it stays for the
	// callers and log greps that read it.
	Hits     uint64
	DiskHits uint64
	// Misses counts Get calls that found nothing.
	Misses uint64
	// Stores counts entries written.
	Stores uint64
	// DupPuts counts stores of a key the directory already held — a
	// clean no-op, because a content-addressed key names one result and
	// an entry is a pure function of its result, so the incoming entry
	// is byte for byte the stored one. Under a shared directory two
	// processes completing the same cell book the second write here
	// instead of rewriting (or corrupting) the entry.
	DupPuts uint64
	// FailedStores counts stores that returned an error (an entry that
	// could not be encoded or written): the run stays uncached, and a
	// rerun recomputes it.
	FailedStores uint64
	// Corrupt counts on-disk entries whose integrity footer failed
	// verification; each was deleted and its Get served as a miss (so the
	// fresh result rewrites the entry).
	Corrupt uint64
}

// String renders the counters as "H/T runs served from cache (D from
// disk, S stored)". Duplicate puts, corruption drops and failed stores
// are appended only when they happened, keeping the healthy-cache line
// byte-stable for log greps.
func (s CacheStats) String() string {
	out := fmt.Sprintf("%d/%d runs served from cache (%d from disk, %d stored)",
		s.Hits, s.Hits+s.Misses, s.DiskHits, s.Stores)
	if s.DupPuts > 0 {
		out += fmt.Sprintf(", %d duplicate puts ignored", s.DupPuts)
	}
	if s.Corrupt > 0 {
		out += fmt.Sprintf(", %d corrupt dropped", s.Corrupt)
	}
	if s.FailedStores > 0 {
		out += fmt.Sprintf(", %d stores failed", s.FailedStores)
	}
	return out
}

// RunCache is a content-addressed store of completed simulation results,
// keyed by the SHA-256 fingerprint of (scenario spec incl. seed and
// horizon, DefaultCacheSalt). It is its directory: Get reads and decodes
// the entry file, Put writes it, so re-running a sweep after changing one
// cell — or re-rendering reports — replays the unchanged cells across
// processes. Runs that carry a Tracer are never served from or written
// to the cache (their side effects cannot be replayed).
type RunCache struct {
	dir string

	mu    sync.Mutex
	stats CacheStats
}

// cacheRecord is the on-disk form of a result. It holds each value once:
// the per-piconet results, the admission log, the routes and the run
// counters. The Result-level aggregates (Flows, SlaveKbps, SCOKbps, Slots,
// the poll counters, Admitted) are not stored — decodeEntry rebuilds them
// with scenario.Rollup, the function both collectors use, so a replayed
// result is shaped exactly like a fresh one. The Spec is not stored
// either: the cache re-attaches it from the request on every hit (it
// contains interface-valued fields and is, by construction of the key,
// already known to the caller). entry.go writes the record field by
// field in a flat, hand-written layout, with delay statistics in the
// stats package's flat encodings; a field added to any type the record
// reaches must be added there too (TestEntryCodecCoversEveryField fails
// until it is).
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

// NewRunCache creates a cache over cfg.Dir, creating the directory
// eagerly so configuration errors surface before a sweep starts.
func NewRunCache(cfg CacheConfig) (*RunCache, error) {
	if cfg.Dir == "" {
		return nil, errors.New("harness: cache needs a directory")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("harness: cache dir: %w", err)
	}
	return &RunCache{dir: cfg.Dir}, nil
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

// Key returns the content address of a run under DefaultCacheSalt.
func (c *RunCache) Key(spec scenario.Spec) string {
	return CacheKey(DefaultCacheSalt, spec)
}

// Get returns the cached result of the spec, if present, with the spec
// attached.
func (c *RunCache) Get(spec scenario.Spec) (*scenario.Result, bool) {
	return c.getByKey(c.Key(spec), spec)
}

// getByKey is Get with a precomputed key: the executor hashes the spec
// once, before the simulation runs, so a stateful Radio model mutated by
// the run cannot skew the store key away from the lookup key.
func (c *RunCache) getByKey(key string, spec scenario.Spec) (*scenario.Result, bool) {
	res, err := c.readFile(key, spec)
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		c.stats.Misses++
		return nil, false
	}
	c.stats.Hits++
	c.stats.DiskHits++
	return res, true
}

// Put stores a completed result under the spec's key, atomically via a
// temp file and rename. Putting a key the directory already holds is a
// clean no-op counted in Stats().DupPuts: a content-addressed key names
// one result, and an entry is a pure function of its result, so the
// incoming entry is byte for byte the stored one and concurrent sweeps
// over a shared directory never rewrite each other's entries.
func (c *RunCache) Put(spec scenario.Spec, res *scenario.Result) error {
	return c.putByKey(c.Key(spec), res)
}

// putByKey is Put with a precomputed key (see getByKey).
func (c *RunCache) putByKey(key string, res *scenario.Result) error {
	if res == nil {
		return nil
	}
	return c.store(key, func() ([]byte, error) { return EncodeResultEntry(key, res) })
}

// store is the one write step behind Put and PutEntry. An entry already
// on disk is a duplicate put; otherwise the entry is built and written,
// and counted in Stores, or in FailedStores when either step fails.
// Another process may complete the identical run at the same time: two
// writers racing past the duplicate check both write, which is harmless
// because the write is atomic and the bytes identical.
func (c *RunCache) store(key string, entry func() ([]byte, error)) error {
	if c.onDisk(key) {
		c.mu.Lock()
		c.stats.DupPuts++
		c.mu.Unlock()
		return nil
	}
	data, err := entry()
	if err == nil {
		err = c.writeFile(key, data)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		c.stats.FailedStores++
		return err
	}
	c.stats.Stores++
	return nil
}

// Stats returns a snapshot of the effectiveness counters.
func (c *RunCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// The on-disk entry layout is a cacheRecord payload (entry.go) followed
// by a fixed integrity footer: magic, payload length and payload CRC-32
// (IEEE). A truncated copy, a partial write that survived a crash, or bit
// rot all fail the footer check; the entry is then deleted and the lookup
// degrades to a miss, so the fresh result rewrites it.
//
// The magic names the entry format. A change to the record layout or to
// the stats encodings inside it bumps the magic (not DefaultCacheSalt,
// which tracks result semantics), so entries of an older format fail the
// footer check and become clean misses.
const cacheFooterMagic = "BGC5"

const cacheFooterSize = len(cacheFooterMagic) + 8

// appendFooter appends the footer of payload to it.
func appendFooter(payload []byte) []byte {
	n, sum := uint32(len(payload)), crc32.ChecksumIEEE(payload)
	b := append(payload, cacheFooterMagic...)
	b = binary.LittleEndian.AppendUint32(b, n)
	return binary.LittleEndian.AppendUint32(b, sum)
}

// checkFooter verifies a raw entry and returns its record payload.
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

// EncodeResultEntry renders a result as a raw cache entry: the flat
// payload of its cacheRecord (per-piconet results, admission log, routes
// and counters, with delay statistics in flat stats bytes; see entry.go)
// followed by the integrity footer; DecodeResultEntry rolls the
// Result-level aggregates back up. The bytes are a pure function of the
// key and the result. This is the byte form the cache directory holds
// and fabric workers ship in /complete — one encoding everywhere, so
// any party can verify any entry with the same footer check. A result
// the layout cannot carry (a nil admitted flow) is an error.
func EncodeResultEntry(key string, res *scenario.Result) ([]byte, error) {
	rec := cacheRecord{
		Key:        key,
		Elapsed:    res.Elapsed,
		Events:     res.Events,
		Admissions: res.Admissions,
		Piconets:   res.Piconets,
		Routes:     res.Routes,
	}
	payload, err := appendRecord(make([]byte, 0, rec.sizeHint()+cacheFooterSize), &rec)
	if err != nil {
		return nil, fmt.Errorf("harness: cache encode %s: %w", key, err)
	}
	return appendFooter(payload), nil
}

// decodeEntry verifies and decodes a raw cache entry into a spec-less
// result.
func decodeEntry(key string, entry []byte) (*scenario.Result, error) {
	payload, err := checkFooter(entry)
	if err != nil {
		return nil, err
	}
	rec, err := decodeRecord(payload)
	if err != nil {
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
// decodes it, attaching the caller's spec exactly as a cache hit does:
// defaulted, because that is the spec a fresh run stores (scenario.Run
// defaults before collecting), so reports label cached replays
// byte-identically to fresh runs.
func DecodeResultEntry(key string, entry []byte, spec scenario.Spec) (*scenario.Result, error) {
	res, err := decodeEntry(key, entry)
	if err != nil {
		return nil, err
	}
	res.Spec = spec.WithDefaults()
	return res, nil
}

// dropCorrupt deletes a failed entry file and books the corruption.
func (c *RunCache) dropCorrupt(key string) {
	os.Remove(c.path(key))
	c.mu.Lock()
	c.stats.Corrupt++
	c.mu.Unlock()
}

func (c *RunCache) readFile(key string, spec scenario.Spec) (*scenario.Result, error) {
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		return nil, err
	}
	res, err := DecodeResultEntry(key, data, spec)
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

// GetEntry returns the raw entry stored under key — footer included,
// verified — from the cache directory: the entry as it moves between
// processes, opaque and never re-encoded.
func (c *RunCache) GetEntry(key string) ([]byte, error) {
	data, err := os.ReadFile(c.path(key))
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
// directory already holds is a clean no-op counted in Stats().DupPuts,
// and a write that fails is counted in Stats().FailedStores.
func (c *RunCache) PutEntry(key string, entry []byte) error {
	if _, err := checkFooter(entry); err != nil {
		return err
	}
	return c.store(key, func() ([]byte, error) { return entry, nil })
}

// path names an entry file. The ".run.gob" suffix predates the flat
// record codec; it stays because existing globs and scripts match it.
func (c *RunCache) path(key string) string {
	return filepath.Join(c.dir, key+".run.gob")
}

// onDisk reports whether the directory holds an entry file for key.
func (c *RunCache) onDisk(key string) bool {
	_, err := os.Stat(c.path(key))
	return err == nil
}

// writeFile writes an entry file atomically via temp file + rename, so
// concurrent readers (and writers in other processes) observe only
// absent or complete entries. The temp file is synced before the rename
// and the directory after it, so a stored entry survives a host crash;
// one torn anyway fails its footer on read and re-runs.
func (c *RunCache) writeFile(key string, entry []byte) error {
	tmp, err := os.CreateTemp(c.dir, key+".tmp*")
	if err != nil {
		return fmt.Errorf("harness: cache write: %w", err)
	}
	_, err = tmp.Write(entry)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), c.path(key))
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("harness: cache write: %w", err)
	}
	dir, err := os.Open(c.dir)
	if err == nil {
		err = dir.Sync()
		if cerr := dir.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("harness: cache sync: %w", err)
	}
	return nil
}

package lclgrid

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lclgrid/internal/core"
)

// SynthKey identifies one synthesis in a SynthCache: the canonical
// problem fingerprint (Problem.Fingerprint) plus the anchor power and
// window shape. Two problems with the same fingerprint are the same
// constraint system, so their lookup tables are interchangeable.
type SynthKey struct {
	Fingerprint string `json:"fingerprint"`
	K           int    `json:"k"`
	H           int    `json:"h"`
	W           int    `json:"w"`
}

// String returns a compact human-readable form (truncated fingerprint
// plus shape), used by logging observers.
func (k SynthKey) String() string {
	fp := k.Fingerprint
	if len(fp) > 12 {
		fp = fp[:12]
	}
	return fmt.Sprintf("%s/k%d/%dx%d", fp, k.K, k.H, k.W)
}

// CachedSynthesis is the value a SynthCache stores for a key: exactly
// one of Alg and Err is meaningful. Err records a cached failure — most
// importantly ErrUnsatisfiable, so the classification oracle never
// re-proves a failed shape — and is replayed to every later requester
// of the key. Alg may have a nil Problem when it was loaded from disk
// (the table is a pure label-index function); Engine.Synthesize stamps
// the requester's problem onto a copy before returning it.
type CachedSynthesis struct {
	Alg *Synthesized
	Err error
}

// SynthCache is the pluggable storage behind the engine's synthesis
// memoisation. The engine keeps the singleflight coordination to
// itself — an in-flight synthesis never appears in a SynthCache; only
// completed outcomes are stored — so implementations are plain
// key-value stores with eviction. Implementations must be safe for
// concurrent use.
//
// Built-in implementations: NewMemoryCache (unbounded, the engine
// default), NewLRUCache (capacity-bounded with least-recently-used
// eviction) and NewDiskCache (a persistent layer over either).
type SynthCache interface {
	// Get returns the cached outcome for key and whether one exists.
	Get(key SynthKey) (CachedSynthesis, bool)
	// Contains reports whether a completed outcome for key exists,
	// without counting a hit or miss, refreshing recency, or promoting a
	// disk entry into memory. It is the planner's non-blocking probe: a
	// Plan can say "this shape will be served from cache" without
	// paying Get's side effects (a disk-backed cache answers with a
	// stat, not a read). The answer is advisory — a concurrent Evict may
	// invalidate it before the entry is used.
	Contains(key SynthKey) bool
	// Put stores the outcome for key, replacing any previous entry.
	Put(key SynthKey, val CachedSynthesis)
	// Evict removes the entry for key, reporting whether one existed.
	Evict(key SynthKey) bool
	// Reset removes every entry and zeroes the counters, returning the
	// number of entries removed.
	Reset() int
	// Stats returns a snapshot of the cache counters.
	Stats() CacheStats
}

// CacheStats is a snapshot of synthesis-cache counters.
//
// Snapshot semantics: the counters are read independently, so a
// snapshot taken while solves are in flight is not a single consistent
// cut — Hits+Misses may disagree with the number of Synthesize calls
// that have fully returned, and Entries may lag an in-flight miss. Each
// counter is individually monotone (until Reset) and exact once the
// engine is quiescent.
type CacheStats struct {
	// Hits counts lookups served from the cache. On Engine.CacheStats
	// this includes waiters coalesced onto an in-flight synthesis;
	// waiters that detach on their own cancelled context are not
	// counted.
	Hits uint64
	// Misses counts lookups that found nothing. On Engine.CacheStats
	// this is the exact number of SAT syntheses started (an aborted
	// synthesis counts, its entry just never enters the cache).
	Misses uint64
	// Entries is the number of cached (fingerprint, k, h, w) slots.
	// In-flight syntheses are not entries.
	Entries int
	// Evictions counts entries removed by Evict calls or by a bounded
	// cache making room (Reset removals are not evictions).
	Evictions uint64
}

// eventSource is implemented by the built-in caches so the engine's
// observers see what happens inside them — capacity evictions
// (EventCacheEvict) and the fleet tier's traffic (EventRemoteOp,
// EventRemoteDegraded) — without widening the SynthCache interface.
type eventSource interface {
	setSink(fn func(Event))
}

// --- In-memory cache (unbounded and LRU-bounded) ---------------------------

// lruCache is the built-in in-memory SynthCache: a map plus a recency
// list. capacity 0 means unbounded (the engine default); a positive
// capacity evicts the least-recently-used entry on overflow.
type lruCache struct {
	mu        sync.Mutex
	capacity  int
	ll        *list.List // front = most recently used
	items     map[SynthKey]*list.Element
	hits      uint64
	misses    uint64
	evictions uint64
	sink      func(Event) // capacity evictions only, called without mu
}

type lruEntry struct {
	key SynthKey
	val CachedSynthesis
}

// NewMemoryCache returns the engine's default synthesis cache: an
// unbounded concurrency-safe in-memory map.
func NewMemoryCache() SynthCache { return newLRU(0) }

// NewLRUCache returns an in-memory synthesis cache bounded to capacity
// entries; inserting beyond the bound evicts the least-recently-used
// entry. A capacity below 1 selects the unbounded NewMemoryCache
// behaviour.
func NewLRUCache(capacity int) SynthCache { return newLRU(capacity) }

func newLRU(capacity int) *lruCache {
	if capacity < 0 {
		capacity = 0
	}
	return &lruCache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[SynthKey]*list.Element),
	}
}

func (c *lruCache) setSink(fn func(Event)) {
	c.mu.Lock()
	c.sink = fn
	c.mu.Unlock()
}

func (c *lruCache) Get(key SynthKey) (CachedSynthesis, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return CachedSynthesis{}, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

func (c *lruCache) Contains(key SynthKey) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.items[key]
	return ok
}

func (c *lruCache) Put(key SynthKey, val CachedSynthesis) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry).val = val
		c.ll.MoveToFront(el)
		c.mu.Unlock()
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry{key: key, val: val})
	var evicted []SynthKey
	var notify func(Event)
	if c.capacity > 0 {
		for c.ll.Len() > c.capacity {
			back := c.ll.Back()
			ent := back.Value.(*lruEntry)
			c.ll.Remove(back)
			delete(c.items, ent.key)
			c.evictions++
			evicted = append(evicted, ent.key)
		}
		notify = c.sink
	}
	c.mu.Unlock()
	if notify != nil {
		for _, k := range evicted {
			notify(Event{Kind: EventCacheEvict, Key: k})
		}
	}
}

func (c *lruCache) Evict(key SynthKey) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return false
	}
	c.ll.Remove(el)
	delete(c.items, key)
	c.evictions++
	return true
}

func (c *lruCache) Reset() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	removed := len(c.items)
	c.ll.Init()
	c.items = make(map[SynthKey]*list.Element)
	c.hits, c.misses, c.evictions = 0, 0, 0
	return removed
}

func (c *lruCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Entries:   len(c.items),
		Evictions: c.evictions,
	}
}

// --- Persistent tier: a memory SynthCache over a BlobStore -------------------

// blobTier is the one persistent SynthCache: an in-memory SynthCache
// layered over a BlobStore. Every synthesized table (and every cached
// UNSAT) is encoded into the store, and a Get that misses the memory
// layer loads from the store. Two stores sit under it: a directory
// (NewDiskCache, so tables survive restarts) and the cache service's
// HTTP client (NewRemoteCache, so a fleet shares them). Record names are
// keyed by the problem fingerprint and shape, so concurrent engines can
// safely share one store. Failures other than UNSAT (malformed shapes,
// structural errors) stay in the memory layer only.
//
// Store I/O is best-effort: an unreadable or corrupt record is a miss
// (and is deleted, so the next Put heals it), and a failed write leaves
// the memory entry intact.
type blobTier struct {
	inner SynthCache
	store tierStore
	// sink receives store operations as EventRemoteOp. Only the fleet
	// tier installs one (RemoteCache.setSink); the disk tier is silent.
	sink atomic.Pointer[func(Event)]

	// mu guards the eviction epoch. A Get that loaded a record promotes
	// it into memory only if no Evict began or ended while the record
	// was in flight: without the check, a Get that read a record could
	// re-promote an entry a concurrent Evict just removed. The lock is
	// never held across store I/O, so a sick store cannot line every cold
	// miss up behind one slow round trip.
	mu       sync.Mutex
	epoch    uint64 // bumped when an Evict starts and when it ends
	evicting int    // Evicts between their two bumps

	// storeHits counts Gets served by decoding a stored record; folded
	// into Stats so the store's effectiveness is observable.
	storeHits atomic.Uint64
}

// tierStore is what blobTier calls on its store: BlobStore's writes, a
// read that carries the caller's context (the fleet tier traces its
// lease-wait reads), and an existence probe that never reads a record —
// a stat or a HEAD — because the Planner calls Contains on every
// request.
type tierStore interface {
	getContext(ctx context.Context, name string) ([]byte, bool, error)
	has(name string) (bool, error)
	Put(name string, data []byte) error
	Delete(name string) (removed bool, err error)
}

// NewDiskCache returns a SynthCache that persists synthesized lookup
// tables (and cached UNSAT results) as JSON files under dir, layered
// over inner (nil selects a fresh NewMemoryCache). The directory is
// created if needed; creation failure is the only error path. See
// WithCacheDir for attaching one to an engine, and Engine.Warm for
// filling one from the registry catalogue.
func NewDiskCache(dir string, inner SynthCache) (SynthCache, error) {
	if dir == "" {
		return nil, fmt.Errorf("lclgrid: disk cache needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("lclgrid: disk cache: %w", err)
	}
	return newBlobTier(&dirBlobStore{dir: dir}, inner), nil
}

func newBlobTier(store tierStore, inner SynthCache) *blobTier {
	if inner == nil {
		inner = NewMemoryCache()
	}
	return &blobTier{inner: inner, store: store}
}

// setSink passes the engine's sink down to the memory layer; the store's
// own operations stay unreported (see RemoteCache.setSink).
func (t *blobTier) setSink(fn func(Event)) {
	if src, ok := t.inner.(eventSource); ok {
		src.setSink(fn)
	}
}

func (t *blobTier) observe(op, outcome string, start time.Time) {
	if fn := t.sink.Load(); fn != nil {
		(*fn)(Event{Kind: EventRemoteOp, Op: op, Outcome: outcome, Elapsed: time.Since(start)})
	}
}

func (t *blobTier) Get(key SynthKey) (CachedSynthesis, bool) {
	if val, ok := t.inner.Get(key); ok {
		return val, true
	}
	name := cacheKeyName(key)
	if name == "" {
		return CachedSynthesis{}, false
	}
	val, ok := t.promote(context.Background(), name, key)
	if ok {
		t.storeHits.Add(1)
	}
	return val, ok
}

// promote loads a record and, unless an Evict overlapped the load,
// puts it in the memory layer.
func (t *blobTier) promote(ctx context.Context, name string, key SynthKey) (CachedSynthesis, bool) {
	t.mu.Lock()
	epoch := t.epoch
	t.mu.Unlock()
	val, ok := t.load(ctx, name, key)
	if !ok {
		return CachedSynthesis{}, false
	}
	t.mu.Lock()
	if t.epoch == epoch && t.evicting == 0 {
		t.inner.Put(key, val)
	}
	t.mu.Unlock()
	return val, true
}

// load reads and decodes one record, touching neither the memory layer
// nor the hit counters. A record that fails to decode is deleted
// best-effort, so the next Put heals it instead of every reader
// tripping over the same poison. Only the fleet tier reads under a
// traced context, hence the span name.
func (t *blobTier) load(ctx context.Context, name string, key SynthKey) (val CachedSynthesis, ok bool) {
	start := time.Now()
	ctx, sp := StartSpan(ctx, "remote.get")
	sp.SetAttr("blob", name)
	outcome := "error"
	defer func() {
		t.observe("get", outcome, start)
		sp.SetAttr("outcome", outcome)
		sp.End()
	}()
	data, found, err := t.store.getContext(ctx, name)
	if err != nil {
		return CachedSynthesis{}, false
	}
	if !found {
		outcome = "miss"
		return CachedSynthesis{}, false
	}
	val, err = decodeDiskRecord(data, key)
	if err != nil {
		outcome = "corrupt"
		t.deleteStored(name)
		return CachedSynthesis{}, false
	}
	outcome = "hit"
	return val, true
}

// Contains probes both layers without promoting: the memory layer by
// map lookup, the store by a stat or HEAD. A record that would later
// fail to decode still answers true — the probe is advisory, and the
// self-healing Get path resolves the lie at execution time.
func (t *blobTier) Contains(key SynthKey) bool {
	if t.inner.Contains(key) {
		return true
	}
	name := cacheKeyName(key)
	if name == "" {
		return false
	}
	start := time.Now()
	found, err := t.store.has(name)
	switch {
	case err != nil:
		t.observe("head", "error", start)
	case found:
		t.observe("head", "hit", start)
	default:
		t.observe("head", "miss", start)
	}
	return found
}

// Put stores into both layers. The store write is synchronous: by the
// time the engine retires a singleflight slot (and releases the key's
// cluster lease) the record is visible to every reader of the store.
func (t *blobTier) Put(key SynthKey, val CachedSynthesis) {
	t.inner.Put(key, val)
	data, ok := encodeCacheRecord(key, val)
	name := cacheKeyName(key)
	if !ok || name == "" {
		return // process-local failures are not persisted
	}
	start := time.Now()
	if err := t.store.Put(name, data); err != nil {
		t.observe("put", "error", start)
		return
	}
	t.observe("put", "stored", start)
}

// Evict removes the key from both layers, and no Get in flight
// meanwhile promotes it back into memory.
func (t *blobTier) Evict(key SynthKey) bool {
	t.mu.Lock()
	t.epoch++
	t.evicting++
	t.mu.Unlock()
	removed := t.inner.Evict(key)
	if name := cacheKeyName(key); name != "" && t.deleteStored(name) {
		removed = true
	}
	t.mu.Lock()
	t.epoch++
	t.evicting--
	t.mu.Unlock()
	return removed
}

func (t *blobTier) deleteStored(name string) bool {
	start := time.Now()
	removed, err := t.store.Delete(name)
	if err != nil {
		t.observe("delete", "error", start)
		return false
	}
	t.observe("delete", "ok", start)
	return removed
}

// Reset clears the memory layer only: the store is the persistence the
// tier exists for (or the fleet's catalogue, not this process's to
// clear), so bounding memory with periodic Resets does not throw warm
// state away. Evict individual keys to remove stored records.
func (t *blobTier) Reset() int {
	n := t.inner.Reset()
	t.storeHits.Store(0)
	return n
}

// Stats reports the two layers as one: Entries is the number of tables
// resident in memory (not the number of stored records), and lookups
// served by decoding a stored record count as Hits rather than Misses —
// each store hit first missed the memory layer, so the fold moves it
// from one column to the other. The engine-level view is simpler still:
// with a warm store, Engine.CacheStats().Misses stays zero across
// process restarts.
func (t *blobTier) Stats() CacheStats {
	s := t.inner.Stats()
	h := t.storeHits.Load()
	s.Hits += h
	if s.Misses >= h {
		s.Misses -= h
	} else {
		s.Misses = 0
	}
	return s
}

// diskRecord is the persistence format shared by the disk cache, the
// remote blob cache and the cache service: the key for sanity checking
// plus either an UNSAT marker or the wire form of the table.
type diskRecord struct {
	Key   SynthKey              `json:"key"`
	Unsat bool                  `json:"unsat,omitempty"`
	Alg   *core.SynthesizedWire `json:"alg,omitempty"`
}

// cacheKeyName returns the canonical blob name of a key —
// "fingerprint-k<K>-<H>x<W>", the same stem the disk cache uses for its
// files and the remote cache uses in its URLs — or "" when the key is
// not safely encodable (fingerprints are lowercase hex in practice, but
// SynthCache is a public seam and keys may come from anywhere — never
// let one escape a cache directory or smuggle path segments into a
// URL).
func cacheKeyName(key SynthKey) string {
	if key.Fingerprint == "" || len(key.Fingerprint) > 128 {
		return ""
	}
	for _, ch := range key.Fingerprint {
		switch {
		case ch >= '0' && ch <= '9', ch >= 'a' && ch <= 'f':
		default:
			return ""
		}
	}
	if key.K < 0 || key.H < 0 || key.W < 0 {
		return ""
	}
	return fmt.Sprintf("%s-k%d-%dx%d", key.Fingerprint, key.K, key.H, key.W)
}

// parseCacheKeyName inverts cacheKeyName. It is how a replica turns the
// cache service's key listing back into SynthKeys for warm-on-boot.
func parseCacheKeyName(name string) (SynthKey, error) {
	var key SynthKey
	i := strings.Index(name, "-k")
	if i <= 0 {
		return key, fmt.Errorf("lclgrid: cache name %q has no -k separator", name)
	}
	key.Fingerprint = name[:i]
	if _, err := fmt.Sscanf(name[i:], "-k%d-%dx%d", &key.K, &key.H, &key.W); err != nil {
		return key, fmt.Errorf("lclgrid: cache name %q: %w", name, err)
	}
	if cacheKeyName(key) != name {
		return key, fmt.Errorf("lclgrid: cache name %q is not canonical", name)
	}
	return key, nil
}

// encodeCacheRecord serializes a cached outcome into the shared
// persistence format. ok is false when the outcome must stay
// process-local: only synthesized tables and proven-UNSAT markers are
// durable; other failures (malformed shapes, structural errors, panics
// converted upstream) describe this process, not the problem.
func encodeCacheRecord(key SynthKey, val CachedSynthesis) (data []byte, ok bool) {
	rec := diskRecord{Key: key}
	switch {
	case val.Err == nil && val.Alg != nil:
		rec.Alg = val.Alg.Wire()
	case errors.Is(val.Err, ErrUnsatisfiable):
		rec.Unsat = true
	default:
		return nil, false
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return nil, false
	}
	return data, true
}

func decodeDiskRecord(data []byte, key SynthKey) (CachedSynthesis, error) {
	var rec diskRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return CachedSynthesis{}, err
	}
	if rec.Key != key {
		return CachedSynthesis{}, fmt.Errorf("lclgrid: cache file is for %v, not %v", rec.Key, key)
	}
	if rec.Unsat {
		return CachedSynthesis{Err: ErrUnsatisfiable}, nil
	}
	if rec.Alg == nil {
		return CachedSynthesis{}, fmt.Errorf("lclgrid: cache file carries neither a table nor an UNSAT marker")
	}
	if rec.Alg.K != key.K || rec.Alg.H != key.H || rec.Alg.W != key.W {
		return CachedSynthesis{}, fmt.Errorf("lclgrid: cache file table shape disagrees with its key")
	}
	alg, err := rec.Alg.Decode()
	if err != nil {
		return CachedSynthesis{}, err
	}
	return CachedSynthesis{Alg: alg}, nil
}

package lclgrid

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// CacheServer is the shared-cache side of the serving fleet: a small
// HTTP service storing synthesized-table blobs and coordinating
// cluster-wide synthesis leases. N `lclgrid serve` replicas point a
// RemoteCache at one CacheServer (standalone via `lclgrid cachesvc`, or
// mounted on a serve replica under /v1/cache/ with WithCacheService)
// and behave as one warm catalogue: a table synthesized by any replica
// is a cache hit on every other, and the lease protocol extends the
// engine's singleflight across processes so the expensive SAT synthesis
// of a fingerprint happens exactly once cluster-wide.
//
// The blob protocol (all names are canonical cache-key names,
// "fingerprint-k<K>-<H>x<W>"):
//
//	GET    /cache/{name}   the stored record (the diskRecord JSON the
//	                       disk cache writes), or 404
//	HEAD   /cache/{name}   existence probe (Contains)
//	PUT    /cache/{name}   store a record (body capped; 204)
//	DELETE /cache/{name}   remove (204, or 404 when absent)
//	GET    /keys           JSON array of every stored name
//
// The lease protocol (cluster singleflight; owner identifies the
// requesting replica, ttl bounds how long a dead owner can block the
// key):
//
//	POST   /lease/{name}?owner=X&ttl=15s   acquire: 200 {"granted":true}
//	                                       when free, expired, or already
//	                                       held by X (renewed); 409 with
//	                                       the holder and remaining TTL
//	                                       otherwise
//	PUT    /lease/{name}?owner=X&ttl=15s   heartbeat: 204 renews X's
//	                                       lease; 409 when X lost it
//	DELETE /lease/{name}?owner=X           release: 204 (only X's own
//	                                       lease is removed)
//
// Plus the shared frontend's probes: GET /healthz, GET /readyz (always
// ready) and GET /metrics (a minimal Prometheus rendering of the service
// counters). Blobs are stored in a BlobStore (in-memory, or the same
// directory store the disk cache uses); leases are in-memory — they are
// short-lived coordination state, and losing them on restart costs at
// most one duplicated synthesis per in-flight key, never correctness.
//
// A CacheServer is an http.Handler; Serve runs it with the same
// graceful-drain behaviour as Server.Serve.
type CacheServer struct {
	*frontend
	store BlobStore
	now   func() time.Time

	leaseMu sync.Mutex
	leases  map[string]*cacheLease

	// Service counters, rendered by /metrics and snapshot by Stats.
	gets           atomic.Uint64
	getHits        atomic.Uint64
	puts           atomic.Uint64
	deletes        atomic.Uint64
	leaseGrants    atomic.Uint64
	leaseConflicts atomic.Uint64
	leaseExpiries  atomic.Uint64
}

// cacheLease is one cluster-singleflight lease: the owning replica and
// when its claim lapses (heartbeats push expires forward).
type cacheLease struct {
	owner   string
	expires time.Time
}

// CacheServerStats is a snapshot of the service counters.
type CacheServerStats struct {
	// Blobs is the number of records in the store.
	Blobs int `json:"blobs"`
	// Gets counts GET /cache lookups; GetHits the ones that found a
	// record.
	Gets    uint64 `json:"gets"`
	GetHits uint64 `json:"get_hits"`
	// Puts and Deletes count stores and removals.
	Puts    uint64 `json:"puts"`
	Deletes uint64 `json:"deletes"`
	// LeaseGrants counts acquisitions granted (renewals included),
	// LeaseConflicts acquisitions refused because another owner holds
	// the lease, and LeaseExpiries grants that took over an expired
	// lease — the count the fleet e2e test uses to prove a dead owner's
	// synthesis was taken over.
	LeaseGrants    uint64 `json:"lease_grants"`
	LeaseConflicts uint64 `json:"lease_conflicts"`
	LeaseExpiries  uint64 `json:"lease_expiries"`
}

// CacheServerOption configures NewCacheServer.
type CacheServerOption func(*cacheServerConfig)

type cacheServerConfig struct {
	frontendConfig
	now func() time.Time
}

// DefaultMaxBlobBytes caps PUT /cache bodies: far above any real
// synthesized-table record (the largest catalogue tables serialize to
// well under a megabyte) while keeping a misbehaving client from
// filling the store's memory with one request.
const DefaultMaxBlobBytes = 64 << 20

// WithMaxBlobBytes caps the size of stored records (n <= 0 keeps the
// default).
func WithMaxBlobBytes(n int64) CacheServerOption {
	return func(c *cacheServerConfig) { c.maxBody = n }
}

// WithCacheDrainTimeout bounds Serve's graceful-shutdown drain window.
func WithCacheDrainTimeout(d time.Duration) CacheServerOption {
	return func(c *cacheServerConfig) { c.drain = d }
}

// withCacheClock injects the lease clock (tests).
func withCacheClock(now func() time.Time) CacheServerOption {
	return func(c *cacheServerConfig) { c.now = now }
}

// WithCacheTracing enables request tracing on the blob and lease
// routes: each request joins its caller's trace via the traceparent
// header a traced replica sends, echoes X-Trace-Id, and deposits the
// finished trace into buf — exposed at GET /debug/traces. The health
// and metrics probes stay untraced (they would drown the buffer in
// scrape noise).
func WithCacheTracing(buf *TraceBuffer) CacheServerOption {
	return func(c *cacheServerConfig) { c.traces = buf }
}

// NewCacheServer returns a cache service over the given store (nil
// selects a fresh in-memory store).
func NewCacheServer(store BlobStore, opts ...CacheServerOption) *CacheServer {
	cfg := cacheServerConfig{now: time.Now}
	for _, opt := range opts {
		opt(&cfg)
	}
	if store == nil {
		store = NewMemoryBlobStore()
	}
	if cfg.maxBody <= 0 {
		cfg.maxBody = DefaultMaxBlobBytes
	}
	// No admission bound and no request deadline: blob and lease calls
	// are cheap, and the replicas' own clients time them out.
	s := &CacheServer{
		store:  store,
		now:    cfg.now,
		leases: make(map[string]*cacheLease),
	}
	s.frontend = newFrontend("cachesvc", cfg.frontendConfig, s.writeMetrics)
	s.tracePrefixes, s.rootByURL = []string{"/cache/", "/lease/"}, true
	s.route("GET /cache/{name}", false, s.handleGet) // HEAD rides along
	s.route("PUT /cache/{name}", false, s.handlePut)
	s.route("DELETE /cache/{name}", false, s.handleDelete)
	s.route("GET /keys", false, s.handleKeys)
	s.route("POST /lease/{name}", false, s.handleLeaseAcquire)
	s.route("PUT /lease/{name}", false, s.handleLeaseHeartbeat)
	s.route("DELETE /lease/{name}", false, s.handleLeaseRelease)
	return s
}

// Serve accepts connections on l until ctx is cancelled, then drains
// in-flight requests like Server.Serve: a bounded graceful shutdown,
// force-closing connections only when the drain window expires.
func (s *CacheServer) Serve(ctx context.Context, l net.Listener) error {
	return s.serve(ctx, l)
}

// Stats returns a snapshot of the service counters.
func (s *CacheServer) Stats() CacheServerStats {
	blobs, _ := s.store.Keys()
	return CacheServerStats{
		Blobs:          len(blobs),
		Gets:           s.gets.Load(),
		GetHits:        s.getHits.Load(),
		Puts:           s.puts.Load(),
		Deletes:        s.deletes.Load(),
		LeaseGrants:    s.leaseGrants.Load(),
		LeaseConflicts: s.leaseConflicts.Load(),
		LeaseExpiries:  s.leaseExpiries.Load(),
	}
}

// blobName extracts and validates the {name} path segment. Names are
// canonical cache-key stems; anything else is rejected before it can
// reach a directory-backed store.
func blobName(r *http.Request) (string, bool) {
	name := r.PathValue("name")
	if name == "" || len(name) > 192 {
		return "", false
	}
	for _, ch := range name {
		switch {
		case ch >= '0' && ch <= '9', ch >= 'a' && ch <= 'z', ch == '-':
		default:
			return "", false
		}
	}
	return name, true
}

func (s *CacheServer) handleGet(w http.ResponseWriter, r *http.Request) {
	name, ok := blobName(r)
	if !ok {
		httpError(w, r, http.StatusBadRequest, errors.New("lclgrid: bad cache key name"))
		return
	}
	s.gets.Add(1)
	data, ok, err := s.store.Get(name)
	if err != nil {
		httpError(w, r, http.StatusInternalServerError, err)
		return
	}
	if !ok {
		httpError(w, r, http.StatusNotFound, fmt.Errorf("lclgrid: no cache entry %q", name))
		return
	}
	s.getHits.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", fmt.Sprint(len(data)))
	_, _ = w.Write(data)
}

func (s *CacheServer) handlePut(w http.ResponseWriter, r *http.Request) {
	name, ok := blobName(r)
	if !ok {
		httpError(w, r, http.StatusBadRequest, errors.New("lclgrid: bad cache key name"))
		return
	}
	data, ok := s.readBody(w, r)
	if !ok {
		return
	}
	if err := s.store.Put(name, data); err != nil {
		httpError(w, r, http.StatusInternalServerError, err)
		return
	}
	s.puts.Add(1)
	w.WriteHeader(http.StatusNoContent)
}

func (s *CacheServer) handleDelete(w http.ResponseWriter, r *http.Request) {
	name, ok := blobName(r)
	if !ok {
		httpError(w, r, http.StatusBadRequest, errors.New("lclgrid: bad cache key name"))
		return
	}
	removed, err := s.store.Delete(name)
	if err != nil {
		httpError(w, r, http.StatusInternalServerError, err)
		return
	}
	if !removed {
		httpError(w, r, http.StatusNotFound, fmt.Errorf("lclgrid: no cache entry %q", name))
		return
	}
	s.deletes.Add(1)
	w.WriteHeader(http.StatusNoContent)
}

func (s *CacheServer) handleKeys(w http.ResponseWriter, r *http.Request) {
	names, err := s.store.Keys()
	if err != nil {
		httpError(w, r, http.StatusInternalServerError, err)
		return
	}
	sort.Strings(names)
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(names)
}

// leaseParams extracts the owner and TTL of a lease request. The TTL is
// clamped to [1s, 10m]: a zero TTL would deadlock waiters and an
// unbounded one would let a dead owner block a key forever.
func leaseParams(r *http.Request) (owner string, ttl time.Duration, err error) {
	owner = r.URL.Query().Get("owner")
	if owner == "" || len(owner) > 128 {
		return "", 0, errors.New("lclgrid: lease needs an owner identity")
	}
	ttl = 15 * time.Second
	if raw := r.URL.Query().Get("ttl"); raw != "" {
		ttl, err = time.ParseDuration(raw)
		if err != nil {
			return "", 0, fmt.Errorf("lclgrid: bad lease ttl: %w", err)
		}
	}
	if ttl < time.Second {
		ttl = time.Second
	}
	if ttl > 10*time.Minute {
		ttl = 10 * time.Minute
	}
	return owner, ttl, nil
}

// leaseDoc is the acquire/heartbeat response body.
type leaseDoc struct {
	Granted bool   `json:"granted"`
	Owner   string `json:"owner,omitempty"`
	// TTLMillis is the holder's remaining TTL when the lease was
	// refused — the longest a waiter needs to poll before the lease can
	// change hands.
	TTLMillis int64 `json:"ttl_ms,omitempty"`
}

func (s *CacheServer) handleLeaseAcquire(w http.ResponseWriter, r *http.Request) {
	name, ok := blobName(r)
	if !ok {
		httpError(w, r, http.StatusBadRequest, errors.New("lclgrid: bad cache key name"))
		return
	}
	owner, ttl, err := leaseParams(r)
	if err != nil {
		httpError(w, r, http.StatusBadRequest, err)
		return
	}
	now := s.now()
	s.leaseMu.Lock()
	l, held := s.leases[name]
	switch {
	case held && l.owner != owner && now.Before(l.expires):
		// Someone else is synthesizing this key.
		holder, remaining := l.owner, l.expires.Sub(now)
		if remaining < 0 {
			remaining = 0
		}
		s.leaseMu.Unlock()
		s.leaseConflicts.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusConflict)
		_ = json.NewEncoder(w).Encode(leaseDoc{Owner: holder, TTLMillis: remaining.Milliseconds()})
		return
	case held && l.owner != owner:
		// Expired: the previous owner died mid-synthesis (or forgot to
		// release). The lease changes hands — this is the takeover path
		// the fleet e2e test exercises.
		s.leaseExpiries.Add(1)
		fallthrough
	default:
		s.leases[name] = &cacheLease{owner: owner, expires: now.Add(ttl)}
		s.leaseMu.Unlock()
		s.leaseGrants.Add(1)
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(leaseDoc{Granted: true, Owner: owner, TTLMillis: ttl.Milliseconds()})
	}
}

func (s *CacheServer) handleLeaseHeartbeat(w http.ResponseWriter, r *http.Request) {
	name, ok := blobName(r)
	if !ok {
		httpError(w, r, http.StatusBadRequest, errors.New("lclgrid: bad cache key name"))
		return
	}
	owner, ttl, err := leaseParams(r)
	if err != nil {
		httpError(w, r, http.StatusBadRequest, err)
		return
	}
	now := s.now()
	s.leaseMu.Lock()
	l, held := s.leases[name]
	if !held || l.owner != owner || !now.Before(l.expires) {
		// The lease lapsed (and may have been taken over). The owner
		// learns it lost the cluster election; its synthesis continues —
		// a duplicated synthesis is wasted work, never wrong work.
		s.leaseMu.Unlock()
		httpError(w, r, http.StatusConflict, fmt.Errorf("lclgrid: lease on %q is no longer held by %q", name, owner))
		return
	}
	l.expires = now.Add(ttl)
	s.leaseMu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

func (s *CacheServer) handleLeaseRelease(w http.ResponseWriter, r *http.Request) {
	name, ok := blobName(r)
	if !ok {
		httpError(w, r, http.StatusBadRequest, errors.New("lclgrid: bad cache key name"))
		return
	}
	owner := r.URL.Query().Get("owner")
	s.leaseMu.Lock()
	if l, held := s.leases[name]; held && l.owner == owner {
		delete(s.leases, name)
	}
	s.leaseMu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

// writeMetrics renders the service counters for GET /metrics.
func (s *CacheServer) writeMetrics(w io.Writer) error {
	st := s.Stats()
	mw := &metricsWriter{w: w}
	mw.gauge("lclgrid_cachesvc_blobs", "Records in the shared synthesis store.", int64(st.Blobs))
	mw.counter("lclgrid_cachesvc_gets_total", "GET /cache lookups.", st.Gets)
	mw.counter("lclgrid_cachesvc_get_hits_total", "GET /cache lookups that found a record.", st.GetHits)
	mw.counter("lclgrid_cachesvc_puts_total", "Records stored.", st.Puts)
	mw.counter("lclgrid_cachesvc_deletes_total", "Records removed.", st.Deletes)
	mw.counter("lclgrid_cachesvc_lease_grants_total", "Synthesis leases granted (renewing acquires included).", st.LeaseGrants)
	mw.counter("lclgrid_cachesvc_lease_conflicts_total", "Lease acquisitions refused because another replica holds the key.", st.LeaseConflicts)
	mw.counter("lclgrid_cachesvc_lease_expiries_total", "Leases taken over after their owner's TTL lapsed.", st.LeaseExpiries)
	if s.traces != nil {
		added, dropped := s.traces.Stats()
		mw.counter("lclgrid_cachesvc_traces_total", "Completed traces deposited in the /debug/traces ring.", added)
		mw.counter("lclgrid_cachesvc_traces_dropped_total", "Traces evicted from the ring by newer ones.", dropped)
	}
	return mw.err
}

// --- Blob stores ------------------------------------------------------------

// BlobStore is the persistence behind a CacheServer: an opaque
// name→bytes map. The server never decodes records — validation happens
// in the cache tier of the replicas, which treats a corrupt record as a
// miss and heals it on the next Put. Implementations must be safe for
// concurrent use.
type BlobStore interface {
	Get(name string) (data []byte, ok bool, err error)
	Put(name string, data []byte) error
	Delete(name string) (removed bool, err error)
	// Keys lists every stored name (unordered) — what warm-on-boot
	// iterates to pull a replica's owned slice.
	Keys() ([]string, error)
}

// memoryBlobStore is the in-memory BlobStore.
type memoryBlobStore struct {
	mu sync.RWMutex
	m  map[string][]byte
}

// NewMemoryBlobStore returns an in-memory BlobStore (the CacheServer
// default). Contents die with the process; pair the cache service with
// NewDirBlobStore when the shared catalogue must survive restarts.
func NewMemoryBlobStore() BlobStore {
	return &memoryBlobStore{m: make(map[string][]byte)}
}

func (s *memoryBlobStore) Get(name string) ([]byte, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	data, ok := s.m[name]
	return data, ok, nil
}

func (s *memoryBlobStore) getContext(_ context.Context, name string) ([]byte, bool, error) {
	return s.Get(name)
}

func (s *memoryBlobStore) has(name string) (bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.m[name]
	return ok, nil
}

func (s *memoryBlobStore) Put(name string, data []byte) error {
	cp := make([]byte, len(data))
	copy(cp, data)
	s.mu.Lock()
	s.m[name] = cp
	s.mu.Unlock()
	return nil
}

func (s *memoryBlobStore) Delete(name string) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.m[name]
	delete(s.m, name)
	return ok, nil
}

func (s *memoryBlobStore) Keys() ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.m))
	for name := range s.m {
		out = append(out, name)
	}
	return out, nil
}

// dirBlobStore persists blobs as files, one "<name>.synth.json" per
// name. It is the store under the disk cache too, so a cache service
// pointed at an existing warm cache directory serves its tables to the
// whole fleet, and records the fleet stores are readable by a local
// WithCacheDir engine sharing the directory. Writes are atomic (see
// writeFileAtomic), so concurrent processes can share a directory.
type dirBlobStore struct {
	dir string
}

// blobFileSuffix names the store's files.
const blobFileSuffix = ".synth.json"

// NewDirBlobStore returns a BlobStore persisting records under dir
// (created if needed), file-compatible with NewDiskCache's layout.
func NewDirBlobStore(dir string) (BlobStore, error) {
	if dir == "" {
		return nil, errors.New("lclgrid: blob store needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("lclgrid: blob store: %w", err)
	}
	return &dirBlobStore{dir: dir}, nil
}

func (s *dirBlobStore) path(name string) string {
	return s.dir + string(filepath.Separator) + name + blobFileSuffix
}

func (s *dirBlobStore) Get(name string) ([]byte, bool, error) {
	data, err := os.ReadFile(s.path(name))
	if errors.Is(err, os.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	return data, true, nil
}

func (s *dirBlobStore) getContext(_ context.Context, name string) ([]byte, bool, error) {
	return s.Get(name)
}

// has answers with a stat: the probe never reads the record.
func (s *dirBlobStore) has(name string) (bool, error) {
	_, err := os.Stat(s.path(name))
	if errors.Is(err, os.ErrNotExist) {
		return false, nil
	}
	return err == nil, err
}

func (s *dirBlobStore) Put(name string, data []byte) error {
	return writeFileAtomic(s.path(name), data)
}

func (s *dirBlobStore) Delete(name string) (bool, error) {
	err := os.Remove(s.path(name))
	if errors.Is(err, os.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return true, nil
}

func (s *dirBlobStore) Keys() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(entries))
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || strings.HasPrefix(name, ".") || !strings.HasSuffix(name, blobFileSuffix) {
			continue
		}
		out = append(out, strings.TrimSuffix(name, blobFileSuffix))
	}
	return out, nil
}

// writeFileAtomic replaces path with data through a temp file in the
// same directory and a rename, so a reader (or a process sharing the
// directory) sees either the old file or the new one, never a torn
// write. Temp names start with "." so directory listings skip them.
func writeFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*-"+filepath.Base(path))
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return errors.Join(werr, cerr)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

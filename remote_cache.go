package lclgrid

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strings"
	"sync"
	"time"
)

// RemoteCache is the fleet side of the synthesis cache: the same
// memory-over-BlobStore tier as the disk cache, with the cache
// service's HTTP client as its store — the memory layer absorbs the
// steady state, and a miss consults the cluster store before the engine
// pays for a SAT synthesis. A table synthesized by any replica becomes
// a hit on every replica. On top of the shared tier RemoteCache adds
// only the lease coordination, Keys and PullOwned.
//
// Two properties drive the design:
//
//   - Availability over freshness: every remote failure — timeout, 5xx,
//     connection refused, corrupt record — degrades to a local miss.
//     The engine then synthesizes locally, so a dead cache backend
//     costs duplicated work, never an outage. Degradations are counted
//     (EventRemoteDegraded / lclgrid_remote_cache_* metrics) so the
//     condition is visible without being fatal.
//   - Cluster-wide singleflight: the engine's per-process singleflight
//     elects one synthesizing goroutine per key; RemoteCache extends
//     the election across processes through the cache service's lease
//     protocol (see the leaseCoordinator seam in Engine.Synthesize).
//     The local election winner tries to acquire the key's lease;
//     losers poll the shared store until the cluster winner publishes
//     the result, taking over if the winner's lease expires — so a
//     fleet racing one cold fingerprint runs the synthesis once, and a
//     replica dying mid-synthesis delays the others by at most the
//     lease TTL.
//
// Construct with NewRemoteCache and install via WithCache; the engine's
// observers then see its traffic as EventRemoteOp and
// EventRemoteDegraded. Safe for concurrent use.
type RemoteCache struct {
	*blobTier
	blobs   *httpBlobStore
	owner   string
	ttl     time.Duration
	maxWait time.Duration
}

var _ SynthCache = (*RemoteCache)(nil)

// RemoteCacheOption configures NewRemoteCache.
type RemoteCacheOption func(*remoteCacheConfig)

type remoteCacheConfig struct {
	client  *http.Client
	owner   string
	ttl     time.Duration
	maxWait time.Duration
}

// WithRemoteClient sets the HTTP client used for every cache-service
// interaction. The default client carries a 5-second timeout — the
// remote layer must fail fast into local synthesis, not hang solves on
// a sick backend.
func WithRemoteClient(c *http.Client) RemoteCacheOption {
	return func(cfg *remoteCacheConfig) { cfg.client = c }
}

// WithRemoteOwner sets the replica identity used for synthesis leases
// (default: hostname#pid). Every replica in a fleet must use a distinct
// owner string; two replicas sharing one identity would both believe
// they hold the same lease.
func WithRemoteOwner(owner string) RemoteCacheOption {
	return func(cfg *remoteCacheConfig) { cfg.owner = owner }
}

// WithLeaseTTL sets the synthesis lease TTL (default 15s). The owner
// heartbeats at ttl/3, so a live owner holds its lease indefinitely; a
// dead one blocks other replicas for at most this long before they take
// the synthesis over.
func WithLeaseTTL(ttl time.Duration) RemoteCacheOption {
	return func(cfg *remoteCacheConfig) { cfg.ttl = ttl }
}

// WithLeaseWait bounds how long a replica waits on another replica's
// in-flight synthesis before giving up and synthesizing locally
// (default 60s). Non-positive disables waiting entirely: lease
// conflicts degrade straight to local synthesis.
func WithLeaseWait(d time.Duration) RemoteCacheOption {
	return func(cfg *remoteCacheConfig) { cfg.maxWait = d }
}

// NewRemoteCache returns a SynthCache backed by the cache service at
// baseURL (e.g. "http://cache:8090", or a serve replica's
// ".../v1/cache" mount), layered over inner (nil selects a fresh
// NewMemoryCache).
func NewRemoteCache(baseURL string, inner SynthCache, opts ...RemoteCacheOption) (*RemoteCache, error) {
	u, err := url.Parse(baseURL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("lclgrid: remote cache needs an absolute base URL, got %q", baseURL)
	}
	cfg := remoteCacheConfig{
		ttl:     15 * time.Second,
		maxWait: 60 * time.Second,
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.client == nil {
		cfg.client = &http.Client{Timeout: 5 * time.Second}
	}
	if cfg.owner == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "lclgrid"
		}
		cfg.owner = fmt.Sprintf("%s#%d", host, os.Getpid())
	}
	if cfg.ttl < time.Second {
		cfg.ttl = time.Second
	}
	blobs := &httpBlobStore{base: strings.TrimRight(u.String(), "/"), client: cfg.client}
	return &RemoteCache{
		blobTier: newBlobTier(blobs, inner),
		blobs:    blobs,
		owner:    cfg.owner,
		ttl:      cfg.ttl,
		maxWait:  cfg.maxWait,
	}, nil
}

// Owner returns the replica identity used for synthesis leases.
func (c *RemoteCache) Owner() string { return c.owner }

// setSink routes the store's operations and coordination give-ups, as
// well as the memory layer's capacity evictions, to the engine that
// installs this cache.
func (c *RemoteCache) setSink(fn func(Event)) {
	c.blobTier.setSink(fn)
	c.sink.Store(&fn)
}

func (c *RemoteCache) observeDegraded() {
	if fn := c.sink.Load(); fn != nil {
		(*fn)(Event{Kind: EventRemoteDegraded})
	}
}

func (c *RemoteCache) leaseURL(name string) string { return c.blobs.base + "/lease/" + name }

// Keys lists every SynthKey in the shared store (non-canonical names
// are skipped). This is the discovery half of warm-on-boot.
func (c *RemoteCache) Keys(ctx context.Context) ([]SynthKey, error) {
	names, err := c.blobs.keys(ctx)
	if err != nil {
		return nil, err
	}
	keys := make([]SynthKey, 0, len(names))
	for _, name := range names {
		key, err := parseCacheKeyName(name)
		if err != nil {
			continue
		}
		keys = append(keys, key)
	}
	return keys, nil
}

// PullOwned pre-loads the memory layer with every shared record whose
// key satisfies owns (nil pulls everything): the warm-on-boot a ring
// member runs so it boots hot for the slice of fingerprint space it
// serves. Undecodable records are skipped. Returns how many entries
// were loaded.
func (c *RemoteCache) PullOwned(ctx context.Context, owns func(SynthKey) bool) (int, error) {
	keys, err := c.Keys(ctx)
	if err != nil {
		return 0, err
	}
	loaded := 0
	for _, key := range keys {
		if err := ctx.Err(); err != nil {
			return loaded, err
		}
		if owns != nil && !owns(key) {
			continue
		}
		if c.inner.Contains(key) {
			loaded++
			continue
		}
		if name := cacheKeyName(key); name != "" {
			if _, ok := c.promote(ctx, name, key); ok {
				loaded++
			}
		}
	}
	return loaded, nil
}

// --- Cluster singleflight ----------------------------------------------------

// leaseCoordinator is the seam Engine.Synthesize probes (by type
// assertion on its SynthCache) to extend singleflight across processes.
// The engine calls coordinate after winning the local election for a
// key and before starting the synthesis:
//
//   - served=true: another replica completed the synthesis while we
//     coordinated; val is its outcome and the engine serves it as a
//     cache hit without synthesizing. release is nil.
//   - served=false: this replica should synthesize. release is non-nil
//     exactly when a cluster lease is held, and must be called after
//     the outcome is Put in the cache (Put-then-release: a waiter woken
//     by the lease disappearing must find the value already published).
//
// Implementations must degrade to (served=false, release=nil) on any
// coordination failure — cluster coordination is an optimisation, never
// a gate on serving.
type leaseCoordinator interface {
	coordinate(ctx context.Context, key SynthKey) (val CachedSynthesis, served bool, release func())
}

var _ leaseCoordinator = (*RemoteCache)(nil)

// coordinate implements the cluster singleflight for one key: try to
// acquire the key's lease; while another replica holds it, poll the
// shared store for the published outcome, re-contending for the lease
// each round so an expired owner is taken over within the TTL. Gives up
// (degrading to uncoordinated local synthesis) on any transport error
// or after WithLeaseWait.
func (c *RemoteCache) coordinate(ctx context.Context, key SynthKey) (CachedSynthesis, bool, func()) {
	name := cacheKeyName(key)
	if name == "" {
		return CachedSynthesis{}, false, nil
	}
	deadline := time.Now().Add(c.maxWait)
	poll := c.ttl / 4
	if poll < 50*time.Millisecond {
		poll = 50 * time.Millisecond
	}
	if poll > 2*time.Second {
		poll = 2 * time.Second
	}
	waitStart := time.Now()
	for {
		granted, holderWait, err := c.acquireLease(ctx, name)
		if err != nil {
			// The cache service is unreachable: synthesize locally,
			// uncoordinated. Availability beats deduplication.
			c.observeDegraded()
			return CachedSynthesis{}, false, nil
		}
		if granted {
			// Re-check the store while holding the lease: our local miss
			// may predate another replica's publish-and-release, in which
			// case we were granted a lease for work already done.
			release := c.startLease(name)
			if val, ok := c.load(ctx, name, key); ok {
				release()
				c.observe("wait", "served", waitStart)
				return val, true, nil
			}
			return CachedSynthesis{}, false, release
		}
		// Another replica is synthesizing. Poll for its result; if its
		// lease lapses (crash mid-synthesis), the next acquire above
		// takes the key over.
		if val, ok := c.load(ctx, name, key); ok {
			c.observe("wait", "served", waitStart)
			return val, true, nil
		}
		if c.maxWait <= 0 || time.Now().After(deadline) || ctx.Err() != nil {
			c.observe("wait", "expired", waitStart)
			c.observeDegraded()
			return CachedSynthesis{}, false, nil
		}
		sleep := poll
		if holderWait > 0 && holderWait < sleep {
			// The holder's lease expires sooner than our poll interval;
			// wake in time to contend for the takeover.
			sleep = holderWait
		}
		select {
		case <-ctx.Done():
			c.observe("wait", "expired", waitStart)
			c.observeDegraded()
			return CachedSynthesis{}, false, nil
		case <-time.After(sleep):
		}
	}
}

// acquireLease attempts to take the key's synthesis lease. holderWait
// is the refusing holder's remaining TTL (0 when unknown).
func (c *RemoteCache) acquireLease(ctx context.Context, name string) (granted bool, holderWait time.Duration, err error) {
	start := time.Now()
	ctx, sp := StartSpan(ctx, "lease.acquire")
	sp.SetAttr("lease", name)
	done := func(outcome string) {
		c.observe("lease", outcome, start)
		sp.SetAttr("outcome", outcome)
		sp.End()
	}
	u := fmt.Sprintf("%s?owner=%s&ttl=%s", c.leaseURL(name), url.QueryEscape(c.owner), c.ttl)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, nil)
	if err != nil {
		sp.SetError(err)
		sp.End()
		return false, 0, err
	}
	injectTraceparent(ctx, req.Header)
	resp, err := c.blobs.client.Do(req)
	if err != nil {
		sp.SetError(err)
		done("error")
		return false, 0, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		done("granted")
		return true, 0, nil
	case http.StatusConflict:
		var doc struct {
			TTLMillis int64 `json:"ttl_ms"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&doc)
		done("conflict")
		return false, time.Duration(doc.TTLMillis) * time.Millisecond, nil
	default:
		done("error")
		return false, 0, fmt.Errorf("lclgrid: lease acquire: %s", resp.Status)
	}
}

// startLease begins heartbeating the held lease and returns the release
// function: it stops the heartbeat and deletes the lease (idempotent).
// Heartbeats run at ttl/3, so one lost beat never costs the lease.
func (c *RemoteCache) startLease(name string) func() {
	stop := make(chan struct{})
	go func() {
		t := time.NewTicker(c.ttl / 3)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				c.heartbeatLease(name)
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(stop)
			c.releaseLease(name)
		})
	}
}

// heartbeatLease is best-effort: a lapsed lease costs only duplicated
// work.
func (c *RemoteCache) heartbeatLease(name string) {
	u := fmt.Sprintf("%s?owner=%s&ttl=%s", c.leaseURL(name), url.QueryEscape(c.owner), c.ttl)
	if resp, _, err := c.blobs.do(context.Background(), http.MethodPut, u, nil); err == nil {
		resp.Body.Close()
	}
}

func (c *RemoteCache) releaseLease(name string) {
	u := c.leaseURL(name) + "?owner=" + url.QueryEscape(c.owner)
	if resp, _, err := c.blobs.do(context.Background(), http.MethodDelete, u, nil); err == nil {
		resp.Body.Close()
	}
}

// --- The cache service's blob client ------------------------------------------

// httpBlobStore is the BlobStore client of a CacheServer's blob
// protocol: the store under the fleet tier. Requests carry the caller's
// trace when it has one.
type httpBlobStore struct {
	base   string // normalized base URL, no trailing slash
	client *http.Client
}

func (s *httpBlobStore) url(name string) string { return s.base + "/cache/" + name }

// do issues one cache-service request and maps its status: 2xx found,
// 404 absent, anything else an error. The caller owns resp.Body.
func (s *httpBlobStore) do(ctx context.Context, method, u string, body []byte) (resp *http.Response, found bool, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, u, rd)
	if err != nil {
		return nil, false, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	injectTraceparent(ctx, req.Header)
	resp, err = s.client.Do(req)
	if err != nil {
		return nil, false, err
	}
	switch {
	case resp.StatusCode/100 == 2:
		return resp, true, nil
	case resp.StatusCode == http.StatusNotFound:
		return resp, false, nil
	}
	resp.Body.Close()
	return nil, false, fmt.Errorf("lclgrid: cache service %s %s: %s", method, u, resp.Status)
}

func (s *httpBlobStore) Get(name string) ([]byte, bool, error) {
	return s.getContext(context.Background(), name)
}

func (s *httpBlobStore) getContext(ctx context.Context, name string) ([]byte, bool, error) {
	resp, found, err := s.do(ctx, http.MethodGet, s.url(name), nil)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	if !found {
		return nil, false, nil
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, DefaultMaxBlobBytes+1))
	if err == nil && int64(len(data)) > DefaultMaxBlobBytes {
		err = fmt.Errorf("lclgrid: cache record %s exceeds %d bytes", name, DefaultMaxBlobBytes)
	}
	if err != nil {
		return nil, false, err
	}
	return data, true, nil
}

// has answers with a HEAD: the probe never transfers the record.
func (s *httpBlobStore) has(name string) (bool, error) {
	resp, found, err := s.do(context.Background(), http.MethodHead, s.url(name), nil)
	if err != nil {
		return false, err
	}
	resp.Body.Close()
	return found, nil
}

func (s *httpBlobStore) Put(name string, data []byte) error {
	resp, found, err := s.do(context.Background(), http.MethodPut, s.url(name), data)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if !found {
		return fmt.Errorf("lclgrid: cache service PUT %s: %s", name, resp.Status)
	}
	return nil
}

func (s *httpBlobStore) Delete(name string) (bool, error) {
	resp, found, err := s.do(context.Background(), http.MethodDelete, s.url(name), nil)
	if err != nil {
		return false, err
	}
	resp.Body.Close()
	return found, nil
}

func (s *httpBlobStore) Keys() ([]string, error) { return s.keys(context.Background()) }

func (s *httpBlobStore) keys(ctx context.Context) ([]string, error) {
	resp, found, err := s.do(ctx, http.MethodGet, s.base+"/keys", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if !found {
		return nil, fmt.Errorf("lclgrid: remote cache key listing: %s", resp.Status)
	}
	var names []string
	if err := json.NewDecoder(resp.Body).Decode(&names); err != nil {
		return nil, err
	}
	return names, nil
}

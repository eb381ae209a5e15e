package lclgrid

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// startCacheService boots a CacheServer over httptest and returns it
// with its base URL.
func startCacheService(t *testing.T, opts ...CacheServerOption) (*CacheServer, string) {
	t.Helper()
	cs := NewCacheServer(nil, opts...)
	ts := httptest.NewServer(cs)
	t.Cleanup(ts.Close)
	return cs, ts.URL
}

// TestRemoteCacheSharesSynthesesAcrossEngines is the tentpole's core
// promise: a table synthesized by one replica is a cache hit on every
// other replica pointing at the same cache service.
func TestRemoteCacheSharesSynthesesAcrossEngines(t *testing.T) {
	cs, base := startCacheService(t)
	p5 := VertexColoring(5, 2)

	rcA, err := NewRemoteCache(base, nil, WithRemoteOwner("a"))
	if err != nil {
		t.Fatal(err)
	}
	engA := NewEngine(WithCache(rcA))
	if _, cached, err := engA.Synthesize(context.Background(), p5, 1, 3, 2); err != nil || cached {
		t.Fatalf("cold synthesis: cached=%v err=%v", cached, err)
	}
	if st := cs.Stats(); st.Puts != 1 {
		t.Fatalf("synthesis was not published to the fleet store: %+v", st)
	}

	// A different process (fresh RemoteCache, fresh engine) hits.
	rcB, err := NewRemoteCache(base, nil, WithRemoteOwner("b"))
	if err != nil {
		t.Fatal(err)
	}
	engB := NewEngine(WithCache(rcB))
	if _, cached, err := engB.Synthesize(context.Background(), p5, 1, 3, 2); err != nil || !cached {
		t.Fatalf("remote record not served as a hit: cached=%v err=%v", cached, err)
	}
	if got := engB.CacheStats().Misses; got != 0 {
		t.Fatalf("engine B synthesized %d times over a warm fleet store", got)
	}
	// The remote hit is folded into Stats as a hit (the diskCache fold).
	if st := rcB.Stats(); st.Hits == 0 {
		t.Fatalf("remote hit not folded into Stats: %+v", st)
	}

	// Second lookup on B is served by the memory layer: no new remote GET.
	gets := cs.Stats().Gets
	if _, cached, _ := engB.Synthesize(context.Background(), p5, 1, 3, 2); !cached {
		t.Fatal("second lookup missed")
	}
	if cs.Stats().Gets != gets {
		t.Fatal("memory layer did not absorb the repeat lookup")
	}
}

// TestRemoteCacheDegradesToLocalSynthesis: every backend failure mode —
// unreachable, 5xx, timeout — must leave the engine fully serviceable
// via local synthesis, with the degradation observable, never an error.
func TestRemoteCacheDegradesToLocalSynthesis(t *testing.T) {
	p5 := VertexColoring(5, 2)
	cases := []struct {
		name    string
		handler http.Handler
	}{
		{"http-500", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "sick backend", http.StatusInternalServerError)
		})},
		{"timeout", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			time.Sleep(2 * time.Second)
		})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(tc.handler)
			defer ts.Close()
			obs := NewMetricsObserver()
			rc, err := NewRemoteCache(ts.URL, nil,
				WithRemoteClient(&http.Client{Timeout: 100 * time.Millisecond}))
			if err != nil {
				t.Fatal(err)
			}
			eng := NewEngine(WithCache(rc), WithObserver(obs))
			alg, cached, err := eng.Synthesize(context.Background(), p5, 1, 3, 2)
			if err != nil || cached || alg == nil {
				t.Fatalf("degraded solve: alg=%v cached=%v err=%v", alg, cached, err)
			}
			var sb strings.Builder
			obs.WritePrometheus(&sb)
			text := sb.String()
			if !strings.Contains(text, "lclgrid_remote_cache_degraded_total 1") {
				t.Errorf("degradation not counted:\n%s", grepMetrics(text, "remote_cache"))
			}
			if !strings.Contains(text, `lclgrid_remote_cache_ops_total{op="get",outcome="error"}`) &&
				!strings.Contains(text, `lclgrid_remote_cache_ops_total{op="get",outcome="miss"}`) {
				t.Errorf("remote get failure not counted:\n%s", grepMetrics(text, "remote_cache"))
			}
		})
	}

	// Connection refused (no server at all) behaves the same.
	t.Run("unreachable", func(t *testing.T) {
		rc, err := NewRemoteCache("http://127.0.0.1:1", nil,
			WithRemoteClient(&http.Client{Timeout: 100 * time.Millisecond}))
		if err != nil {
			t.Fatal(err)
		}
		eng := NewEngine(WithCache(rc))
		if alg, _, err := eng.Synthesize(context.Background(), p5, 1, 3, 2); err != nil || alg == nil {
			t.Fatalf("solve with unreachable cache service: %v", err)
		}
	})
}

// grepMetrics filters a Prometheus rendering to the lines mentioning
// substr, for focused failure messages.
func grepMetrics(text, substr string) string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// TestRemoteCacheCorruptRecordHeals: a corrupt stored record is a miss
// (never an error), is deleted so it cannot poison other replicas, and
// the next Put heals the store.
func TestRemoteCacheCorruptRecordHeals(t *testing.T) {
	cs, base := startCacheService(t)
	p5 := VertexColoring(5, 2)
	key := SynthKey{Fingerprint: p5.Fingerprint(), K: 1, H: 3, W: 2}
	name := cacheKeyName(key)
	if name == "" {
		t.Fatal("key has no canonical name")
	}

	// Plant garbage under the canonical name.
	if err := cs.store.Put(name, []byte(`{"key":{"fingerprint":"not-this-one"}}`)); err != nil {
		t.Fatal(err)
	}
	obs := NewMetricsObserver()
	rc, err := NewRemoteCache(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(WithCache(rc), WithObserver(obs))
	if _, ok := rc.Get(key); ok {
		t.Fatal("corrupt record served as a hit")
	}
	if _, ok, _ := cs.store.Get(name); ok {
		t.Fatal("corrupt record not removed from the store")
	}
	var sb strings.Builder
	obs.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), `op="get",outcome="corrupt"`) {
		t.Errorf("corrupt fetch not counted:\n%s", grepMetrics(sb.String(), "remote_cache"))
	}

	// The engine synthesizes through the miss and Put heals the store:
	// a second replica now reads a valid record.
	if alg, _, err := eng.Synthesize(context.Background(), p5, 1, 3, 2); err != nil || alg == nil {
		t.Fatalf("synthesis through corrupt record: %v", err)
	}
	data, ok, _ := cs.store.Get(name)
	if !ok {
		t.Fatal("Put did not heal the store")
	}
	if _, err := decodeDiskRecord(data, key); err != nil {
		t.Fatalf("healed record does not decode: %v", err)
	}
	rc2, _ := NewRemoteCache(base, nil, WithRemoteOwner("b"))
	if val, ok := rc2.Get(key); !ok || val.Alg == nil {
		t.Fatal("healed record not served to a fresh replica")
	}
}

// TestRemoteCacheFailuresNeverPoisonSingleflight: with a backend that
// errors on every call, concurrent requests for one cold key still
// coalesce onto exactly one local synthesis — remote failures must not
// break the engine's singleflight invariants. Run under -race.
func TestRemoteCacheFailuresNeverPoisonSingleflight(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "flaky", http.StatusInternalServerError)
	}))
	defer ts.Close()
	rc, err := NewRemoteCache(ts.URL, nil,
		WithRemoteClient(&http.Client{Timeout: 200 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(WithCache(rc))
	p5 := VertexColoring(5, 2)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			alg, _, err := eng.Synthesize(context.Background(), p5, 1, 3, 2)
			if err != nil || alg == nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("request failed under remote faults: %v", err)
	}
	if got := eng.CacheStats().Misses; got != 1 {
		t.Fatalf("singleflight ran %d syntheses, want 1", got)
	}
}

// TestFleetSingleSynthesis is the fleet e2e acceptance check: three
// replicas (engines with distinct RemoteCaches over one cache service)
// racing the same cold fingerprint run the SAT synthesis exactly once
// cluster-wide — one replica holds the lease and synthesizes, the rest
// are served its published outcome.
func TestFleetSingleSynthesis(t *testing.T) {
	cs, base := startCacheService(t)
	p5 := VertexColoring(5, 2)

	const replicas = 3
	engines := make([]*Engine, replicas)
	for i := range engines {
		rc, err := NewRemoteCache(base, nil,
			WithRemoteOwner(string(rune('a'+i))),
			WithLeaseTTL(time.Second), // poll at ttl/4 = 250ms
			WithLeaseWait(30*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = NewEngine(WithCache(rc))
	}

	var wg sync.WaitGroup
	errs := make(chan error, replicas)
	for _, eng := range engines {
		wg.Add(1)
		go func(e *Engine) {
			defer wg.Done()
			alg, _, err := e.Synthesize(context.Background(), p5, 1, 3, 2)
			if err != nil || alg == nil {
				errs <- err
			}
		}(eng)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("replica failed: %v", err)
	}

	total := uint64(0)
	for _, eng := range engines {
		total += eng.CacheStats().Misses
	}
	if total != 1 {
		t.Fatalf("cluster ran %d syntheses for one fingerprint, want exactly 1", total)
	}
	st := cs.Stats()
	if st.LeaseGrants == 0 {
		t.Fatalf("no lease was ever granted: %+v", st)
	}
	if st.Puts != 1 {
		t.Fatalf("store received %d puts, want 1: %+v", st.Puts, st)
	}
}

// TestFleetLeaseTakeover: a replica that dies mid-synthesis (lease
// acquired, never heartbeated, never released) blocks the fleet for at
// most the lease TTL; the next replica then takes the synthesis over
// and completes it.
func TestFleetLeaseTakeover(t *testing.T) {
	clock := newFakeClock()
	cs, base := startCacheService(t, withCacheClock(clock.Now))
	p5 := VertexColoring(5, 2)
	key := SynthKey{Fingerprint: p5.Fingerprint(), K: 1, H: 3, W: 2}
	name := cacheKeyName(key)

	// Replica "dead" wins the cluster election and immediately dies:
	// acquire the lease raw, with no heartbeat loop and no release.
	rcDead, err := NewRemoteCache(base, nil, WithRemoteOwner("dead"), WithLeaseTTL(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	granted, _, err := rcDead.acquireLease(context.Background(), name)
	if err != nil || !granted {
		t.Fatalf("dead replica's acquire: granted=%v err=%v", granted, err)
	}

	// Replica "live" contends. While the dead lease is fresh it is told
	// to wait; once the TTL lapses its next acquire takes over.
	rcLive, err := NewRemoteCache(base, nil, WithRemoteOwner("live"),
		WithLeaseTTL(time.Second), WithLeaseWait(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if granted, holdWait, err := rcLive.acquireLease(context.Background(), name); err != nil || granted {
		t.Fatalf("live replica acquired a held lease: granted=%v err=%v", granted, err)
	} else if holdWait <= 0 {
		t.Fatalf("conflict carried no holder TTL: %v", holdWait)
	}

	clock.Advance(6 * time.Second) // the dead owner's TTL lapses

	engLive := NewEngine(WithCache(rcLive))
	start := time.Now()
	alg, cached, err := engLive.Synthesize(context.Background(), p5, 1, 3, 2)
	if err != nil || cached || alg == nil {
		t.Fatalf("takeover synthesis: alg=%v cached=%v err=%v", alg, cached, err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("takeover took %v", elapsed)
	}
	st := cs.Stats()
	if st.LeaseExpiries != 1 {
		t.Fatalf("takeover not recorded as a lease expiry: %+v", st)
	}
	if st.Puts != 1 {
		t.Fatalf("takeover synthesis not published: %+v", st)
	}
}

// TestRemoteCachePullOwned: warm-on-boot pulls exactly the owned slice
// of the shared store into the memory layer.
func TestRemoteCachePullOwned(t *testing.T) {
	_, base := startCacheService(t)
	p5 := VertexColoring(5, 2)
	p4 := VertexColoring(4, 2)

	// Publish two fingerprints through a seeding replica.
	seed, err := NewRemoteCache(base, nil, WithRemoteOwner("seed"))
	if err != nil {
		t.Fatal(err)
	}
	engSeed := NewEngine(WithCache(seed))
	if _, _, err := engSeed.Synthesize(context.Background(), p5, 1, 3, 2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := engSeed.Synthesize(context.Background(), p4, 3, 7, 5); err != nil {
		t.Fatal(err)
	}

	// A booting replica owning only p5's fingerprint pulls exactly it.
	rc, err := NewRemoteCache(base, nil, WithRemoteOwner("boot"))
	if err != nil {
		t.Fatal(err)
	}
	owned := p5.Fingerprint()
	n, err := rc.PullOwned(context.Background(), func(k SynthKey) bool { return k.Fingerprint == owned })
	if err != nil || n != 1 {
		t.Fatalf("PullOwned = %d, %v; want 1, nil", n, err)
	}
	if !rc.inner.Contains(SynthKey{Fingerprint: owned, K: 1, H: 3, W: 2}) {
		t.Fatal("owned record not in the memory layer")
	}
	if rc.inner.Contains(SynthKey{Fingerprint: p4.Fingerprint(), K: 3, H: 7, W: 5}) {
		t.Fatal("unowned record was pulled")
	}
}

// BenchmarkRemoteCacheWarmSolve measures a solve whose table comes from
// the shared fleet store: the memory layer is cleared every iteration,
// so each solve pays one remote GET + record decode (the steady state
// of a replica serving a fingerprint another replica synthesized).
func BenchmarkRemoteCacheWarmSolve(b *testing.B) {
	cs := NewCacheServer(nil)
	ts := httptest.NewServer(cs)
	defer ts.Close()
	rc, err := NewRemoteCache(ts.URL, nil, WithRemoteOwner("bench"))
	if err != nil {
		b.Fatal(err)
	}
	eng := NewEngine(WithCache(rc))
	req := SolveRequest{Key: "5col", N: 12}
	if _, err := eng.Solve(context.Background(), req); err != nil {
		b.Fatalf("warming solve: %v", err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rc.inner.Reset() // force the remote layer to serve the table
		if _, err := eng.Solve(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFleetServedHitTracesCacheHit: a traced lookup answered from an
// outcome another replica published while this one waited on its lease
// is a cache hit like any other — counted once, and recorded as a
// cache.hit point event in the request's span tree.
func TestFleetServedHitTracesCacheHit(t *testing.T) {
	cs, base := startCacheService(t)
	p5 := VertexColoring(5, 2)
	key := SynthKey{Fingerprint: p5.Fingerprint(), K: 1, H: 3, W: 2}

	// Replica "holder" owns the key's lease for the whole test.
	holder, err := NewRemoteCache(base, nil, WithRemoteOwner("holder"), WithLeaseTTL(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if granted, _, err := holder.acquireLease(context.Background(), cacheKeyName(key)); err != nil || !granted {
		t.Fatalf("holder's acquire: granted=%v err=%v", granted, err)
	}

	// Replica "waiter" misses, is refused the lease and polls the store.
	rc, err := NewRemoteCache(base, nil, WithRemoteOwner("waiter"),
		WithLeaseTTL(time.Second), WithLeaseWait(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	var counts CountingObserver
	eng := NewEngine(WithCache(rc), WithObserver(&counts))
	tr := StartTrace("serve", "test")
	type outcome struct {
		cached bool
		err    error
	}
	done := make(chan outcome, 1)
	go func() {
		_, cached, err := eng.Synthesize(ContextWithSpan(context.Background(), tr.Root()), p5, 1, 3, 2)
		done <- outcome{cached, err}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for cs.Stats().LeaseConflicts == 0 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never contended for the lease")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The holder publishes; the waiter's next poll is served it.
	alg, _, err := NewEngine().Synthesize(context.Background(), p5, 1, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	holder.Put(key, CachedSynthesis{Alg: alg})
	got := <-done
	if got.err != nil || !got.cached {
		t.Fatalf("served lookup: cached=%v err=%v", got.cached, got.err)
	}
	if c := counts.Counts(); c.CacheHits != 1 || c.CacheMisses != 0 || c.Syntheses != 0 {
		t.Errorf("counts = %+v, want 1 hit, no miss, no synthesis", c)
	}
	tr.Finish(nil)
	doc := tr.document()
	if sp := findSpan(doc.Spans, "lease.coordinate"); sp == nil || sp.Attrs["outcome"] != "served" {
		t.Fatalf("no served lease.coordinate span in %v", spanNames(doc.Spans, nil))
	}
	hit := findSpan(doc.Spans, "cache.hit")
	if hit == nil {
		t.Fatalf("served hit recorded no cache.hit span; have %v", spanNames(doc.Spans, nil))
	}
	if hit.Attrs["synth_key"] != cacheKeyName(key) {
		t.Errorf("cache.hit synth_key = %q, want %q", hit.Attrs["synth_key"], cacheKeyName(key))
	}
}

package lclgrid

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lclgrid/internal/core"
)

// Engine is the service front of the package: it resolves SolveRequests
// through a Registry and memoises expensive SAT syntheses in a pluggable
// SynthCache keyed by the canonical problem fingerprint plus the anchor
// power and window shape (SynthKey). Repeated and concurrent Solve calls
// for the same problem reuse one synthesized lookup table; UNSAT results
// are cached too, so the classification oracle never re-proves a failed
// shape.
//
// The execution layer has three composable seams:
//
//   - Streaming: SolveStream serves an iterator of requests on a bounded
//     worker pool and yields each result the moment it completes;
//     SolveBatch is the order-preserving collector over it.
//   - Caching: the SynthCache behind Synthesize is chosen at
//     construction (WithCache, WithCacheCapacity, WithCacheDir) — the
//     disk-backed layer persists lookup tables across process restarts,
//     and Warm pre-synthesizes a catalogue on startup.
//   - Observability: Observers installed with WithObserver receive one
//     Event per lifecycle step — request, plan stage, synthesis, cache
//     and window events, and the traffic of a RemoteCache tier — through
//     a single Observe method.
//
// Every entry point takes a context.Context and honours cancellation all
// the way down into the SAT search: a cancelled request aborts an
// in-flight synthesis it owns, and a request waiting on another
// request's synthesis detaches on its own context without disturbing the
// shared work. The zero value is not usable; construct with NewEngine.
type Engine struct {
	reg   *Registry
	cache SynthCache
	obs   []Observer

	mu       sync.Mutex
	inflight map[SynthKey]*synthEntry

	// graphs holds one shared tile graph slot per shape of the default
	// oracle schedule; the map itself is never written after NewEngine.
	graphs map[[3]int]*graphSlot

	hits   atomic.Uint64
	misses atomic.Uint64
}

// synthEntry is a singleflight slot: the first requester synthesizes
// while later ones wait on ready. In-flight slots live in the engine's
// inflight map, never in the SynthCache; a completed outcome is Put in
// the cache before the slot is retired, and an entry whose synthesis was
// aborted by its owner's context is retired without a Put — waiters
// observe the context error and re-run the election, so an abort never
// poisons anything.
type synthEntry struct {
	ready chan struct{}
	alg   *core.Synthesized
	err   error
	// failed marks an entry whose synthesis panicked: nothing was
	// cached, so waiters must not report it as a cache hit.
	failed bool
}

// EngineOption configures NewEngine.
type EngineOption func(*engineConfig)

type engineConfig struct {
	reg      *Registry
	cache    SynthCache
	capacity int
	cacheDir string
	obs      []Observer
}

// WithRegistry selects the problem registry (default DefaultRegistry()).
func WithRegistry(r *Registry) EngineOption {
	return func(c *engineConfig) { c.reg = r }
}

// WithCache installs a custom SynthCache. It overrides WithCacheCapacity
// and is itself wrapped by WithCacheDir when both are given.
func WithCache(cache SynthCache) EngineOption {
	return func(c *engineConfig) { c.cache = cache }
}

// WithCacheCapacity bounds the default in-memory synthesis cache to n
// entries with least-recently-used eviction (n < 1 keeps it unbounded).
// Ignored when WithCache supplies an explicit cache.
func WithCacheCapacity(n int) EngineOption {
	return func(c *engineConfig) { c.capacity = n }
}

// WithCacheDir layers disk persistence under the synthesis cache:
// synthesized lookup tables (and cached UNSAT results) are serialized
// under dir and survive process restarts. It panics when the directory
// cannot be created — construction-time configuration errors should not
// be silently dropped; callers that need an error path can build the
// layer themselves with NewDiskCache and pass it via WithCache.
func WithCacheDir(dir string) EngineOption {
	return func(c *engineConfig) { c.cacheDir = dir }
}

// WithObserver installs an Observer; repeated options compose (every
// observer receives every event, in installation order).
func WithObserver(o Observer) EngineOption {
	return func(c *engineConfig) {
		if o != nil {
			c.obs = append(c.obs, o)
		}
	}
}

// NewEngine returns an engine configured by opts: the registry, the
// synthesis cache (unbounded in-memory by default; see WithCache,
// WithCacheCapacity and WithCacheDir) and the observers.
func NewEngine(opts ...EngineOption) *Engine {
	var cfg engineConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.reg == nil {
		cfg.reg = DefaultRegistry()
	}
	cache := cfg.cache
	if cache == nil {
		if cfg.capacity > 0 {
			cache = NewLRUCache(cfg.capacity)
		} else {
			cache = NewMemoryCache()
		}
	}
	if cfg.cacheDir != "" {
		layered, err := NewDiskCache(cfg.cacheDir, cache)
		if err != nil {
			panic(fmt.Sprintf("lclgrid: WithCacheDir(%q): %v", cfg.cacheDir, err))
		}
		cache = layered
	}
	e := &Engine{
		reg:      cfg.reg,
		cache:    cache,
		obs:      cfg.obs,
		inflight: make(map[SynthKey]*synthEntry),
		graphs:   newGraphSlots(),
	}
	if len(e.obs) > 0 {
		if src, ok := cache.(eventSource); ok {
			// Evictions and store traffic belong to no request's trace.
			src.setSink(func(ev Event) { e.emit(context.Background(), ev) })
		}
	}
	return e
}

// Registry returns the engine's problem registry.
func (e *Engine) Registry() *Registry { return e.reg }

// Cache returns the engine's synthesis cache — useful for inspecting
// the store-level counters of a bounded or disk-backed cache (the
// engine-level singleflight-aware counters are in CacheStats).
func (e *Engine) Cache() SynthCache { return e.cache }

// CacheStats returns a snapshot of the engine-level synthesis counters:
// Hits and Misses follow the singleflight semantics (waiters coalesced
// onto an in-flight synthesis count as hits; Misses is the exact number
// of SAT syntheses started), Entries and Evictions come from the
// underlying SynthCache. See the CacheStats type for the snapshot
// semantics.
func (e *Engine) CacheStats() CacheStats {
	cs := e.cache.Stats()
	return CacheStats{
		Hits:      e.hits.Load(),
		Misses:    e.misses.Load(),
		Entries:   cs.Entries,
		Evictions: cs.Evictions,
	}
}

// Evict removes the cached synthesis (including a cached UNSAT) for
// (p, k, h, w) and reports whether an entry was removed. An in-flight
// synthesis is left alone — evicting it would let a concurrent caller
// start a duplicate of work that is still running.
func (e *Engine) Evict(p *Problem, k, h, w int) bool {
	key := SynthKey{Fingerprint: p.Fingerprint(), K: k, H: h, W: w}
	e.mu.Lock()
	_, inflight := e.inflight[key]
	e.mu.Unlock()
	if inflight {
		return false
	}
	removed := e.cache.Evict(key)
	if removed {
		e.emit(context.Background(), Event{Kind: EventCacheEvict, Key: key})
	}
	return removed
}

// Reset removes every completed cache entry and zeroes the hit/miss
// counters, returning the number of entries removed. In-flight
// syntheses are left to complete and stay cached; long-lived services
// can therefore call Reset periodically to bound cache growth without
// racing their own traffic (or bound it structurally with
// WithCacheCapacity). On a disk-backed cache Reset clears the in-memory
// layer only; the files persist. The engine's shared tile graphs stay:
// they are geometry, the same for every problem, not cached outcomes.
func (e *Engine) Reset() int {
	removed := e.cache.Reset()
	e.hits.Store(0)
	e.misses.Store(0)
	return removed
}

// isCtxErr reports whether err is a context cancellation or deadline
// (the shared core predicate; the singleflight re-election below and the
// oracle's abort detection must agree on it).
func isCtxErr(err error) bool { return core.IsContextError(err) }

// withProblem attaches p to a cache-loaded algorithm: tables
// deserialized from disk carry no problem (it is function-valued), and
// the stamp must go on a copy because the cached value is shared between
// goroutines.
func withProblem(alg *Synthesized, p *Problem) *Synthesized {
	if alg == nil || alg.Problem != nil {
		return alg
	}
	stamped := *alg
	stamped.Problem = p
	return &stamped
}

// Synthesize returns the normal-form algorithm for (p, k, h, w), running
// the SAT synthesis at most once per (fingerprint, k, h, w) across all
// goroutines; cached reports whether the result (including a cached
// UNSAT) was reused. Completed outcomes live in the engine's SynthCache
// — with a disk-backed cache a table synthesized by an earlier process
// is a hit here, not a new synthesis.
//
// Cancellation: the first requester of a key owns the synthesis and runs
// it under its own ctx; cancelling that ctx aborts the SAT search, the
// dead singleflight slot is retired without entering the cache (no
// poisoned slot), and a subsequent call re-synthesizes. Waiters
// coalesced onto an in-flight synthesis detach with their own ctx's
// error the moment it is cancelled; the shared synthesis keeps running
// for the remaining waiters.
//
// Every shape sweep — Classify, the planner's oracle stage for inline
// and user problems, SynthesisSolver, LabelWindow, ExportGrid and Warm —
// calls Synthesize once per shape, in schedule order, and a cold
// synthesis always encodes and solves a fresh CSP (core.SynthesizeOn)
// over the shape's tile graph, so a shape's table does not depend on
// which path synthesized it. The graph depends only on the shape: for
// the shapes of the default oracle schedule the engine builds it once
// and shares it with every later synthesis of that shape (see
// synthesizeCold); every other shape builds a fresh one.
func (e *Engine) Synthesize(ctx context.Context, p *Problem, k, h, w int) (alg *Synthesized, cached bool, err error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	key := SynthKey{Fingerprint: p.Fingerprint(), K: k, H: h, W: w}
	// release drops the cluster-wide synthesis lease when the cache
	// extends singleflight across replicas (see leaseCoordinator). The
	// deferred call is the panic-safety net; the normal path releases
	// explicitly after the outcome is Put in the cache, so a replica
	// polling on the lease never wakes to find the value missing.
	var release func()
	defer func() {
		if release != nil {
			release()
		}
	}()
	for {
		// Fast path: a completed outcome in the cache.
		if val, ok := e.cache.Get(key); ok {
			e.cacheHit(ctx, key)
			return withProblem(val.Alg, p), true, val.Err
		}
		e.mu.Lock()
		if ent, ok := e.inflight[key]; ok {
			e.mu.Unlock()
			_, wsp := StartSpan(ctx, "cache.wait")
			wsp.SetAttr("synth_key", synthKeyAttr(key))
			select {
			case <-ctx.Done():
				wsp.SetAttr("outcome", "detached")
				wsp.End()
				return nil, false, ctx.Err() // detach; the synthesis continues
			case <-ent.ready:
			}
			wsp.SetAttr("outcome", "ready")
			wsp.End()
			if isCtxErr(ent.err) {
				// The owner aborted; its slot is already retired. Re-run
				// the election (we may become the owner).
				continue
			}
			if ent.failed {
				// The owner panicked; nothing was cached. Report the
				// failure without counting a hit — and without retrying,
				// which would just re-run the panicking synthesis.
				return nil, false, ent.err
			}
			e.cacheHit(ctx, key)
			return withProblem(ent.alg, p), true, ent.err
		}
		ent := &synthEntry{ready: make(chan struct{})}
		e.inflight[key] = ent
		e.mu.Unlock()
		// Double-check the cache: a previous owner may have completed
		// between our Get miss and taking the lock. Waiters that raced
		// onto our slot in the meantime are fed the cached outcome.
		if val, ok := e.cache.Get(key); ok {
			e.retire(key)
			ent.alg, ent.err = val.Alg, val.Err
			close(ent.ready)
			e.cacheHit(ctx, key)
			return withProblem(val.Alg, p), true, val.Err
		}
		// Cluster singleflight: having won the local election, contend
		// for the key cluster-wide. Either another replica's outcome
		// comes back (serve it to our waiters as a hit) or we hold the
		// cluster lease (or degraded to uncoordinated local synthesis —
		// coordination is an optimisation, never a gate).
		if lc, ok := e.cache.(leaseCoordinator); ok {
			cctx, csp := StartSpan(ctx, "lease.coordinate")
			csp.SetAttr("synth_key", synthKeyAttr(key))
			val, served, rel := lc.coordinate(cctx, key)
			if served {
				csp.SetAttr("outcome", "served")
				csp.End()
				e.retire(key)
				ent.alg, ent.err = val.Alg, val.Err
				close(ent.ready)
				e.cacheHit(ctx, key)
				return withProblem(val.Alg, p), true, val.Err
			}
			if rel != nil {
				csp.SetAttr("outcome", "granted")
			} else {
				csp.SetAttr("outcome", "degraded")
			}
			csp.End()
			release = rel
		}
		e.misses.Add(1)
		e.emit(ctx, Event{Kind: EventCacheMiss, Key: key})
		e.emit(ctx, Event{Kind: EventSynthesisStart, Key: key})
		sctx, ssp := StartSpan(ctx, "synthesis")
		ssp.SetAttr("synth_key", synthKeyAttr(key))
		start := time.Now()
		func() {
			// Panic safety: a panic below (user-supplied Problem callbacks
			// run inside the synthesis) must not leave the slot registered
			// with ready never closed — that would deadlock every later
			// request for this key. Unregister, fail the waiters, then let
			// the panic propagate to this caller.
			defer func() {
				if r := recover(); r != nil {
					e.retire(key)
					ent.err = fmt.Errorf("lclgrid: synthesis panicked: %v", r)
					ent.failed = true
					ssp.SetError(ent.err)
					ssp.End()
					e.emit(ctx, Event{Kind: EventSynthesisEnd, Key: key, Elapsed: time.Since(start), Err: ent.err})
					close(ent.ready)
					panic(r)
				}
			}()
			ent.alg, ent.err = e.synthesizeCold(sctx, p, k, h, w)
		}()
		ssp.SetError(ent.err)
		if ent.alg != nil {
			// Attribute the SAT work so a slow trace names its cost:
			// conflict/decision/propagation counts straight off the solver.
			ss := ent.alg.SolverStats
			ssp.SetAttr("conflicts", strconv.Itoa(ss.Conflicts))
			ssp.SetAttr("decisions", strconv.Itoa(ss.Decisions))
			ssp.SetAttr("propagations", strconv.Itoa(ss.Propagated))
		}
		ssp.End()
		e.emit(ctx, Event{Kind: EventSynthesisEnd, Key: key, Elapsed: time.Since(start), Err: ent.err})
		if !isCtxErr(ent.err) {
			// Cache the completed outcome (success, UNSAT or a structural
			// failure) before retiring the slot, so no later Get can miss
			// a result that a waiter is about to observe.
			e.cache.Put(key, CachedSynthesis{Alg: ent.alg, Err: ent.err})
		}
		if release != nil {
			// Put-then-release: the shared store holds the outcome (a
			// remote-capable cache publishes synchronously in Put), so
			// replicas woken by the lease vanishing find it immediately.
			release()
			release = nil
		}
		e.retire(key)
		close(ent.ready)
		return ent.alg, false, ent.err
	}
}

// synthesizeCold runs one cold synthesis of (p, k, h, w). A shape of
// the default oracle schedule is solved over the engine's shared tile
// graph for that shape; any other shape (a forced or higher-power one
// from the wire) builds a fresh graph, so no request can make the engine
// keep an arbitrary graph.
func (e *Engine) synthesizeCold(ctx context.Context, p *Problem, k, h, w int) (*Synthesized, error) {
	slot := e.graphs[[3]int{k, h, w}]
	if slot == nil {
		return core.Synthesize(ctx, p, k, h, w)
	}
	tg, err := slot.get(ctx)
	if err != nil {
		return nil, err
	}
	return core.SynthesizeOn(ctx, p, tg)
}

// graphSlot holds the engine's shared tile graph for one shape. The
// first synthesis of the shape builds it and concurrent ones wait for
// that one build; a build aborted by its caller's context is not kept,
// so the next caller builds again.
type graphSlot struct {
	k, h, w int
	build   chan struct{} // capacity 1: held by the caller that builds
	tg      atomic.Pointer[core.TileGraph]
}

// newGraphSlots returns one empty slot per shape of the default oracle
// schedule: OracleSchedule at the default MaxPower, the shapes every
// oracle-classified problem walks.
func newGraphSlots() map[[3]int]*graphSlot {
	slots := make(map[[3]int]*graphSlot)
	for _, s := range core.OracleSchedule(buildOptions(nil).MaxPower) {
		slots[s] = &graphSlot{k: s[0], h: s[1], w: s[2], build: make(chan struct{}, 1)}
	}
	return slots
}

// get returns the slot's graph, building it under ctx when no earlier
// build completed. A waiter detaches with its own ctx's error.
func (s *graphSlot) get(ctx context.Context) (*core.TileGraph, error) {
	if tg := s.tg.Load(); tg != nil {
		return tg, nil
	}
	select {
	case s.build <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-s.build }()
	if tg := s.tg.Load(); tg != nil {
		return tg, nil // built while this caller waited
	}
	tg, err := core.BuildTileGraph(ctx, s.k, s.h, s.w)
	if err != nil {
		return nil, err
	}
	s.tg.Store(tg)
	return tg, nil
}

// synthKeyAttr renders a SynthKey as a span attribute: the stable cache
// file name when the key is well-formed, the full form otherwise.
func synthKeyAttr(key SynthKey) string {
	if name := cacheKeyName(key); name != "" {
		return name
	}
	return key.String()
}

// cacheHit counts a synthesis lookup served from the cache and emits
// its event.
func (e *Engine) cacheHit(ctx context.Context, key SynthKey) {
	e.hits.Add(1)
	e.emit(ctx, Event{Kind: EventCacheHit, Key: key})
}

// retire removes the singleflight slot for key.
func (e *Engine) retire(key SynthKey) {
	e.mu.Lock()
	delete(e.inflight, key)
	e.mu.Unlock()
}

// Classify runs the §7 one-sided classification oracle through the
// synthesis cache: ClassifyOracle's schedule and semantics, with every
// shape synthesized (or replayed) through Synthesize, so completed
// shapes — failed ones included — are cached and re-classifying a warm
// problem starts zero syntheses. The shapes are tried strictly in
// schedule order, so the verdict depends only on the problem, never on
// timing. Cancelling ctx aborts the schedule; the context's error is
// recorded in OracleResult.Err.
func (e *Engine) Classify(ctx context.Context, p *Problem, maxK int) OracleResult {
	synth := func(ctx context.Context, p *Problem, k, h, w int) (*Synthesized, error) {
		alg, _, err := e.Synthesize(ctx, p, k, h, w)
		return alg, err
	}
	return core.ClassifyOracleWith(ctx, synth, p, maxK)
}

// WarmStats summarises one Engine.Warm call.
type WarmStats struct {
	// Problems is the number of registry keys examined.
	Problems int `json:"problems"`
	// Warmed counts keys that are now backed by a cached lookup table.
	Warmed int `json:"warmed"`
	// Skipped counts keys whose best solver needs no synthesis (direct
	// algorithms, constant fills, brute force, the L_M gadget).
	Skipped int `json:"skipped"`
	// Failed counts synthesis-backed keys none of whose attempt shapes
	// admitted a table; Warm also returns an error naming them.
	Failed int `json:"failed,omitempty"`
	// Syntheses counts cold SAT syntheses performed by this call — zero
	// when everything was already cached (e.g. a disk-warmed restart).
	Syntheses int `json:"syntheses"`
}

// Warm pre-synthesizes the lookup tables behind the given registry keys
// (every registered key when none are given), so a long-lived service
// pays its SAT costs at startup instead of on first request. Keys whose
// plan hint needs no synthesis (constant fill, direct algorithms, the
// Θ(n) baseline) are skipped; unknown keys abort the sweep. Like live
// solves, Warm tries a spec's attempt shapes strictly in order and stops
// at the first that admits a table, so it caches exactly the shape a
// cold request would serve. A synthesis-backed key none of whose attempt
// shapes admits a table is counted in WarmStats.Failed and reported in
// the returned error — after the rest of the sweep completes, so one
// unservable key does not leave the catalogue cold. With a disk-backed cache
// (WithCacheDir), Warm is the catalogue loader: a warmed directory
// makes every later engine start with Syntheses == 0. Cancelling ctx
// aborts the sweep with the context's error.
func (e *Engine) Warm(ctx context.Context, keys ...string) (WarmStats, error) {
	if len(keys) == 0 {
		keys = e.reg.Keys()
	}
	var stats WarmStats
	var failed []string
	for _, key := range keys {
		if err := ctx.Err(); err != nil {
			return stats, err
		}
		spec, err := e.reg.Lookup(key)
		if err != nil {
			return stats, err
		}
		stats.Problems++
		attempts := spec.Attempts
		if len(attempts) == 0 && spec.Oracle && spec.Problem != nil && spec.Dims == 2 {
			// Oracle specs (user-defined problems) have no synthesis hint;
			// warming walks the paper's oracle schedule so the classification
			// — a cached table, or cached UNSATs at every shape — is paid at
			// startup. Either outcome is the warm state: a conjectured-global
			// problem's negative certificates serve requests just as a table
			// does.
			attempts = oracleAttempts(3)
		}
		if len(attempts) == 0 || spec.Problem == nil {
			stats.Skipped++
			continue
		}
		p := spec.Problem()
		_, _, _, err = synthesizeFirst(ctx, attempts, func(ctx context.Context, a SynthAttempt) (*Synthesized, bool, error) {
			alg, cached, err := e.Synthesize(ctx, p, a.K, a.H, a.W)
			if !cached && !isCtxErr(err) {
				// An aborted call ran no synthesis to completion (or only
				// waited on someone else's); it must not inflate Syntheses.
				stats.Syntheses++
			}
			return alg, cached, err
		})
		switch {
		case isCtxErr(err):
			return stats, err
		case err == nil || spec.Oracle:
			// Every oracle shape refusing a table is a warm state too: the
			// problem is conjectured global, the refusals are cached, and
			// live requests fall back to the Θ(n) baseline.
			stats.Warmed++
		default:
			stats.Failed++
			failed = append(failed, key)
		}
	}
	if len(failed) > 0 {
		return stats, fmt.Errorf("lclgrid: warm: no lookup table admitted for %s (every attempt shape failed); live requests for these keys will fail too", strings.Join(failed, ", "))
	}
	return stats, nil
}

// Solve serves one SolveRequest through the Planner → Plan → Strategy
// pipeline: the Planner resolves the problem (registry Key or inline
// Problem), torus and identifier assignment, and ranks the applicable
// strategies — constant fill, direct algorithm, cached-table probe,
// in-order normal-form synthesis, Θ(n) baseline — into a Plan; the plan
// executor then runs the stages in order until one produces a Result.
// The returned Result carries the request's wall-clock duration in
// Elapsed and the per-stage outcomes in Trace (the same plan `lclgrid
// explain` prints). A cancelled ctx aborts promptly — before any work
// when already cancelled, or mid-synthesis at the next checkpoint.
// Observers see an EventRequestStart/EventRequestEnd pair for every
// call, an EventPlanBuilt once the plan exists, and an
// EventStrategyStart/EventStrategyEnd pair per executed stage.
//
// The Θ(n) fallback is deliberately scoped to too-small-torus failures
// of synthesis stages: at normal-form scale the brute force is cheap.
// Direct-algorithm specs with large minimum sides (5edgecol, 680+) are
// NOT redirected — their alphabets make the SAT baseline intractable,
// so an honest error beats an open-ended solve.
func (e *Engine) Solve(ctx context.Context, req SolveRequest) (*Result, error) {
	start := time.Now()
	e.emit(ctx, Event{Kind: EventRequestStart, Request: req})
	var res *Result
	var err error
	if err = ctx.Err(); err == nil {
		res, err = e.solve(ctx, req)
	}
	if res != nil {
		// Stamp the duration on a shallow copy: the pointer may still be
		// the solver's own Result, which the engine never writes through.
		stamped := *res
		stamped.Elapsed = time.Since(start)
		res = &stamped
	}
	e.emit(ctx, Event{Kind: EventRequestEnd, Request: req, Result: res, Err: err})
	return res, err
}

// solve is the uniform execution path of every request: build the plan,
// announce it, walk it.
func (e *Engine) solve(ctx context.Context, req SolveRequest) (*Result, error) {
	_, psp := StartSpan(ctx, "plan")
	plan, err := e.Plan(req)
	if err != nil {
		psp.SetError(err)
		psp.End()
		return nil, err
	}
	psp.SetAttr("strategies", strconv.Itoa(len(plan.Strategies)))
	psp.SetAttr("class", plan.Class.String())
	psp.End()
	e.emit(ctx, Event{Kind: EventPlanBuilt, Request: req, Plan: plan})
	return e.executePlan(ctx, req, plan)
}

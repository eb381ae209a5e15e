package lclgrid

import (
	"context"
	"sync/atomic"
	"time"
)

// EventKind names one engine lifecycle event; its comment lists the
// Event fields the kind sets.
type EventKind uint8

const (
	// EventRequestStart fires when Engine.Solve accepts a request
	// (including each request of a batch or stream). Sets Request.
	EventRequestStart EventKind = iota + 1
	// EventRequestEnd fires when the request completes. Sets Request,
	// Result and Err; exactly one of Result and Err is meaningful (Result
	// may accompany Err for partial results, e.g. a labelling that failed
	// verification).
	EventRequestEnd
	// EventPlanBuilt fires once per request after the Planner ranked its
	// strategies and before any of them runs. Sets Request and Plan.
	EventPlanBuilt
	// EventStrategyStart fires when the plan executor enters a stage;
	// skipped stages produce no events (they appear only in
	// Result.Trace). Sets Request and Strategy.
	EventStrategyStart
	// EventStrategyEnd fires when that stage returns. Sets Request,
	// Strategy, Result and Err, with EventRequestEnd's meaning.
	EventStrategyEnd
	// EventFallback fires when a request aimed at a synthesized normal
	// form is redirected to the Θ(n) baseline because the torus is below
	// the normal form's minimum side. Sets Request and Err (the
	// ErrTorusTooSmall-wrapping cause).
	EventFallback
	// EventCacheHit fires when a synthesis lookup is served from the
	// cache, including waiters coalesced onto an in-flight synthesis and
	// outcomes published by another replica. Sets Key.
	EventCacheHit
	// EventCacheMiss fires when a synthesis lookup finds nothing and a
	// synthesis is started (it always precedes EventSynthesisStart).
	// Sets Key.
	EventCacheMiss
	// EventCacheEvict fires when a cache entry is removed by Engine.Evict
	// or by a capacity-bounded cache making room (not on Reset). Sets Key.
	EventCacheEvict
	// EventSynthesisStart fires when a SAT synthesis is elected to run (a
	// cache miss that this goroutine now owns). Sets Key.
	EventSynthesisStart
	// EventSynthesisEnd fires when that synthesis returns. Sets Key,
	// Elapsed and Err: nil on success, ErrUnsatisfiable-wrapping on a
	// proven non-table, or the context's error on an abort.
	EventSynthesisEnd
	// EventWindowStart fires when LabelWindow or ExportGrid accepts a
	// request (an export is one window with cumulative stats). Sets Label.
	EventWindowStart
	// EventWindowEnd fires when it completes. Sets Label, Stats (zero
	// when nothing was evaluated), Elapsed and Err.
	EventWindowEnd
	// EventRemoteOp records one interaction of a RemoteCache installed
	// with WithCache. Sets Op, the protocol verb ("get", "head", "put",
	// "delete", "lease", "wait"), Outcome, its result ("hit", "miss",
	// "stored", "granted", "conflict", "served", "error", "corrupt",
	// "expired"), and Elapsed.
	EventRemoteOp
	// EventRemoteDegraded records a coordination give-up: the replica
	// fell back to uncoordinated local synthesis because the cache
	// service was unreachable or the lease wait timed out. Sets nothing.
	EventRemoteDegraded
)

// Event is one engine lifecycle event. Kind says what happened and which
// fields are set; the others are zero. Plan, Strategy and Result point
// at engine-owned values and must be treated as read-only.
type Event struct {
	Kind EventKind

	Request  SolveRequest
	Plan     *Plan
	Strategy *PlannedStrategy
	Result   *Result

	Key SynthKey

	Label LabelRequest
	Stats WindowStats

	Op, Outcome string

	Elapsed time.Duration
	Err     error
}

// Observer receives engine lifecycle events: a start/end pair per
// request, per executed plan stage, per SAT synthesis actually run and
// per windowed label request, one event per cache interaction, and the
// traffic of a RemoteCache tier. Install with
// NewEngine(WithObserver(...)); several observers compose (each receives
// every event, in installation order). Implementations switch on
// Event.Kind and ignore the kinds they do not care about, so they stay
// compatible when kinds are added.
//
// Observe is invoked synchronously on the goroutine doing the work —
// from inside the engine's request path and its singleflight synthesis
// path — so it must be fast and safe for concurrent use (batch and
// stream execution deliver events from many workers at once). An
// observer must not call back into the engine it observes.
type Observer interface {
	Observe(ev Event)
}

// emit delivers ev to every observer, in installation order. Cache hits
// and misses are also point events on the request's trace; their
// synth_key attribute is rendered only when ctx carries a span, so an
// untraced lookup pays nothing for it.
func (e *Engine) emit(ctx context.Context, ev Event) {
	for _, o := range e.obs {
		o.Observe(ev)
	}
	var name string
	switch ev.Kind {
	case EventCacheHit:
		name = "cache.hit"
	case EventCacheMiss:
		name = "cache.miss"
	default:
		return
	}
	if parent := SpanFromContext(ctx); parent != nil {
		sp := parent.tr.startSpan(name, parent)
		sp.SetAttr("synth_key", synthKeyAttr(ev.Key))
		sp.End()
	}
}

// ObserverCounts is a snapshot of a CountingObserver.
type ObserverCounts struct {
	// Requests and RequestErrors count EventRequestStart events and the
	// EventRequestEnd events carrying an error.
	Requests      uint64 `json:"requests"`
	RequestErrors uint64 `json:"request_errors"`
	// Syntheses counts SAT syntheses started; SynthesisErrors the ones
	// that returned an error (UNSAT proofs and aborts included), and
	// SynthesisAborts the subset that ended with a context error (the
	// requests' cancellations and deadlines).
	// SynthesisTime is the cumulative wall-clock time inside the
	// synthesizer, aborted work included.
	Syntheses       uint64        `json:"syntheses"`
	SynthesisErrors uint64        `json:"synthesis_errors"`
	SynthesisAborts uint64        `json:"synthesis_aborts"`
	SynthesisTime   time.Duration `json:"synthesis_time_ns"`
	// CacheHits / CacheMisses / CacheEvicts count the cache events.
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	CacheEvicts uint64 `json:"cache_evicts"`
	// Fallbacks counts too-small-torus redirects to the Θ(n) baseline.
	Fallbacks uint64 `json:"fallbacks"`
	// Plans counts EventPlanBuilt (one per accepted request); Strategies
	// counts executed plan stages and StrategyErrors the ones that failed
	// (skipped stages fire no events).
	Plans          uint64 `json:"plans"`
	Strategies     uint64 `json:"strategies"`
	StrategyErrors uint64 `json:"strategy_errors"`
	// Windows and WindowErrors count EventWindowStart events and the
	// EventWindowEnd events carrying an error; WindowTime is the
	// cumulative wall-clock time inside windowed evaluation.
	Windows      uint64        `json:"windows"`
	WindowErrors uint64        `json:"window_errors"`
	WindowTime   time.Duration `json:"window_time_ns"`
	// RemoteOps counts remote-cache interactions, RemoteOpErrors the
	// subset with outcome "error", and RemoteDegraded the coordination
	// give-ups that fell back to uncoordinated local synthesis.
	RemoteOps      uint64 `json:"remote_ops"`
	RemoteOpErrors uint64 `json:"remote_op_errors"`
	RemoteDegraded uint64 `json:"remote_degraded"`
}

// CountingObserver is a built-in Observer that tallies every event in
// atomic counters — the cheapest way to see what an engine is doing.
// The zero value is ready to use; read a consistent-enough snapshot
// with Counts. It is safe to share one CountingObserver between
// engines.
type CountingObserver struct {
	requests        atomic.Uint64
	requestErrors   atomic.Uint64
	syntheses       atomic.Uint64
	synthesisErrors atomic.Uint64
	synthesisAborts atomic.Uint64
	synthesisNanos  atomic.Int64
	cacheHits       atomic.Uint64
	cacheMisses     atomic.Uint64
	cacheEvicts     atomic.Uint64
	fallbacks       atomic.Uint64
	plans           atomic.Uint64
	strategies      atomic.Uint64
	strategyErrors  atomic.Uint64
	windows         atomic.Uint64
	windowErrors    atomic.Uint64
	windowNanos     atomic.Int64
	remoteOps       atomic.Uint64
	remoteOpErrors  atomic.Uint64
	remoteDegraded  atomic.Uint64
}

var _ Observer = (*CountingObserver)(nil)

// Counts returns a snapshot of the counters. Like CacheStats, the
// counters are read independently: a snapshot taken while requests are
// in flight is not a single consistent cut, but each counter is exact
// once the engine is quiescent.
func (c *CountingObserver) Counts() ObserverCounts {
	return ObserverCounts{
		Requests:        c.requests.Load(),
		RequestErrors:   c.requestErrors.Load(),
		Syntheses:       c.syntheses.Load(),
		SynthesisErrors: c.synthesisErrors.Load(),
		SynthesisAborts: c.synthesisAborts.Load(),
		SynthesisTime:   time.Duration(c.synthesisNanos.Load()),
		CacheHits:       c.cacheHits.Load(),
		CacheMisses:     c.cacheMisses.Load(),
		CacheEvicts:     c.cacheEvicts.Load(),
		Fallbacks:       c.fallbacks.Load(),
		Plans:           c.plans.Load(),
		Strategies:      c.strategies.Load(),
		StrategyErrors:  c.strategyErrors.Load(),
		Windows:         c.windows.Load(),
		WindowErrors:    c.windowErrors.Load(),
		WindowTime:      time.Duration(c.windowNanos.Load()),
		RemoteOps:       c.remoteOps.Load(),
		RemoteOpErrors:  c.remoteOpErrors.Load(),
		RemoteDegraded:  c.remoteDegraded.Load(),
	}
}

// Observe implements Observer.
func (c *CountingObserver) Observe(ev Event) {
	switch ev.Kind {
	case EventRequestStart:
		c.requests.Add(1)
	case EventRequestEnd:
		if ev.Err != nil {
			c.requestErrors.Add(1)
		}
	case EventPlanBuilt:
		c.plans.Add(1)
	case EventStrategyStart:
		c.strategies.Add(1)
	case EventStrategyEnd:
		if ev.Err != nil {
			c.strategyErrors.Add(1)
		}
	case EventFallback:
		c.fallbacks.Add(1)
	case EventCacheHit:
		c.cacheHits.Add(1)
	case EventCacheMiss:
		c.cacheMisses.Add(1)
	case EventCacheEvict:
		c.cacheEvicts.Add(1)
	case EventSynthesisStart:
		c.syntheses.Add(1)
	case EventSynthesisEnd:
		c.synthesisNanos.Add(int64(ev.Elapsed))
		if ev.Err != nil {
			c.synthesisErrors.Add(1)
			if IsContextError(ev.Err) {
				c.synthesisAborts.Add(1)
			}
		}
	case EventWindowStart:
		c.windows.Add(1)
	case EventWindowEnd:
		c.windowNanos.Add(int64(ev.Elapsed))
		if ev.Err != nil {
			c.windowErrors.Add(1)
		}
	case EventRemoteOp:
		c.remoteOps.Add(1)
		if ev.Outcome == "error" {
			c.remoteOpErrors.Add(1)
		}
	case EventRemoteDegraded:
		c.remoteDegraded.Add(1)
	}
}

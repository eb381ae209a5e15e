package lclgrid_test

import (
	"sync"
	"testing"
	"time"

	lclgrid "lclgrid"
)

// TestCountingObserver walks one engine lifecycle past a
// CountingObserver and checks every counter: cold solve (miss +
// synthesis), warm solve (hit), a too-small-torus fallback, an evict
// and a failing request.
func TestCountingObserver(t *testing.T) {
	var c lclgrid.CountingObserver
	eng := lclgrid.NewEngine(lclgrid.WithObserver(&c))

	if _, err := eng.Solve(bg, lclgrid.SolveRequest{Key: "5col", N: 16}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Solve(bg, lclgrid.SolveRequest{Key: "5col", N: 16, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	counts := c.Counts()
	if counts.Requests != 2 || counts.RequestErrors != 0 {
		t.Errorf("requests = %d/%d errors, want 2/0", counts.Requests, counts.RequestErrors)
	}
	if counts.Syntheses != 1 || counts.CacheMisses != 1 {
		t.Errorf("syntheses/misses = %d/%d, want 1/1", counts.Syntheses, counts.CacheMisses)
	}
	if counts.CacheHits != 1 {
		t.Errorf("cache hits = %d, want 1", counts.CacheHits)
	}
	if counts.SynthesisTime <= 0 {
		t.Error("synthesis time not accumulated")
	}

	// 4col below the normal form's minimum side redirects to the Θ(n)
	// baseline: a Fallback event.
	if _, err := eng.Solve(bg, lclgrid.SolveRequest{Key: "4col", N: 16}); err != nil {
		t.Fatal(err)
	}
	if got := c.Counts().Fallbacks; got != 1 {
		t.Errorf("fallbacks = %d, want 1", got)
	}

	if !eng.Evict(lclgrid.VertexColoring(5, 2), 1, 3, 2) {
		t.Fatal("evict found no entry")
	}
	if got := c.Counts().CacheEvicts; got != 1 {
		t.Errorf("evicts = %d, want 1", got)
	}

	if _, err := eng.Solve(bg, lclgrid.SolveRequest{Key: "nope"}); err == nil {
		t.Fatal("unknown key succeeded")
	}
	if got := c.Counts().RequestErrors; got != 1 {
		t.Errorf("request errors = %d, want 1", got)
	}
}

// TestCountingObserverFleetParity checks the counters added for
// event-parity with the MetricsObserver: windowed label requests flow
// through the real engine path, and remote-cache events count what they
// are handed.
func TestCountingObserverFleetParity(t *testing.T) {
	var c lclgrid.CountingObserver
	eng := lclgrid.NewEngine(lclgrid.WithObserver(&c))

	if _, err := eng.LabelWindow(bg, lclgrid.LabelRequest{
		Key: "mis", Sides: []int{100000, 100000}, X: 42, Y: 7, W: 6, H: 4,
	}); err != nil {
		t.Fatal(err)
	}
	counts := c.Counts()
	if counts.Windows != 1 || counts.WindowErrors != 0 {
		t.Errorf("windows = %d/%d errors, want 1/0", counts.Windows, counts.WindowErrors)
	}
	if counts.WindowTime <= 0 {
		t.Error("window time not accumulated")
	}

	// A rejected window (absurd dimensions) is an error event.
	if _, err := eng.LabelWindow(bg, lclgrid.LabelRequest{
		Key: "mis", Sides: []int{100000, 100000}, W: 1 << 21, H: 1,
	}); err == nil {
		t.Fatal("oversized window succeeded")
	}
	if got := c.Counts().WindowErrors; got != 1 {
		t.Errorf("window errors = %d, want 1", got)
	}

	// Remote-cache events count what they are handed.
	c.Observe(lclgrid.Event{Kind: lclgrid.EventRemoteOp, Op: "get", Outcome: "hit", Elapsed: time.Millisecond})
	c.Observe(lclgrid.Event{Kind: lclgrid.EventRemoteOp, Op: "get", Outcome: "error", Elapsed: time.Millisecond})
	c.Observe(lclgrid.Event{Kind: lclgrid.EventRemoteDegraded})
	counts = c.Counts()
	if counts.RemoteOps != 2 || counts.RemoteOpErrors != 1 || counts.RemoteDegraded != 1 {
		t.Errorf("remote ops = %d/%d errors/%d degraded, want 2/1/1",
			counts.RemoteOps, counts.RemoteOpErrors, counts.RemoteDegraded)
	}
}

// TestObserverLRUEviction: a capacity eviction inside the bounded cache
// surfaces as a CacheEvict event even though the engine never called
// Evict.
func TestObserverLRUEviction(t *testing.T) {
	var c lclgrid.CountingObserver
	eng := lclgrid.NewEngine(lclgrid.WithCacheCapacity(1), lclgrid.WithObserver(&c))
	if _, _, err := eng.Synthesize(bg, lclgrid.VertexColoring(5, 2), 1, 3, 2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.Synthesize(bg, lclgrid.VertexColoring(6, 2), 1, 3, 2); err != nil {
		t.Fatal(err)
	}
	if got := c.Counts().CacheEvicts; got != 1 {
		t.Errorf("capacity eviction not observed: evicts = %d, want 1", got)
	}
}

// eventObserver records the ordered event names for one key, to pin the
// miss → start → end sequencing contract.
type eventObserver struct {
	mu     sync.Mutex
	events []string
}

func (o *eventObserver) record(ev string) {
	o.mu.Lock()
	o.events = append(o.events, ev)
	o.mu.Unlock()
}

func (o *eventObserver) Observe(ev lclgrid.Event) {
	switch ev.Kind {
	case lclgrid.EventSynthesisStart:
		o.record("synth-start")
	case lclgrid.EventSynthesisEnd:
		o.record("synth-end")
	case lclgrid.EventCacheHit:
		o.record("hit")
	case lclgrid.EventCacheMiss:
		o.record("miss")
	}
}

// TestObserverEventOrder: a cold synthesis emits miss, synth-start,
// synth-end in that order, then a warm lookup emits hit — and multiple
// observers both see everything.
func TestObserverEventOrder(t *testing.T) {
	var seq eventObserver
	var c lclgrid.CountingObserver
	eng := lclgrid.NewEngine(lclgrid.WithObserver(&seq), lclgrid.WithObserver(&c))
	p := lclgrid.VertexColoring(5, 2)
	if _, _, err := eng.Synthesize(bg, p, 1, 3, 2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.Synthesize(bg, p, 1, 3, 2); err != nil {
		t.Fatal(err)
	}
	want := []string{"miss", "synth-start", "synth-end", "hit"}
	seq.mu.Lock()
	got := append([]string(nil), seq.events...)
	seq.mu.Unlock()
	if len(got) != len(want) {
		t.Fatalf("events = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("events = %v, want %v", got, want)
		}
	}
	counts := c.Counts()
	if counts.CacheMisses != 1 || counts.CacheHits != 1 || counts.Syntheses != 1 {
		t.Errorf("second observer saw %+v, want 1 miss / 1 hit / 1 synthesis", counts)
	}
}

// TestObserverUntracedHitAllocs: on an untraced context a warm
// Synthesize hit allocates nothing, with or without an observer: the
// cache key reuses the problem's stored fingerprint, and emitting the
// hit event renders no span attributes.
func TestObserverUntracedHitAllocs(t *testing.T) {
	p := lclgrid.VertexColoring(5, 2)
	allocs := func(opts ...lclgrid.EngineOption) float64 {
		eng := lclgrid.NewEngine(opts...)
		if _, _, err := eng.Synthesize(bg, p, 1, 3, 2); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(100, func() {
			if _, cached, err := eng.Synthesize(bg, p, 1, 3, 2); err != nil || !cached {
				t.Fatalf("warm lookup: cached=%v err=%v", cached, err)
			}
		})
	}
	if bare := allocs(); bare != 0 {
		t.Errorf("warm untraced hit allocates %v, want 0", bare)
	}
	if observed := allocs(lclgrid.WithObserver(&lclgrid.CountingObserver{})); observed != 0 {
		t.Errorf("warm untraced hit allocates %v with a CountingObserver, want 0", observed)
	}
}

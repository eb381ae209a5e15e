// Command lclgrid is the command-line front end of the reproduction. All
// subcommands resolve problems through the package Registry and solve
// through the synthesis-caching Engine under a signal-cancellable
// context (Ctrl-C aborts an in-flight SAT synthesis cleanly):
//
//	lclgrid list [-v]                print the problem registry (-v adds plan hints and sources)
//	lclgrid explain '<request>'      print the ranked solve plan without solving
//	lclgrid define '<problem-def>'   register a table-DSL problem on a running server
//	lclgrid experiments [-id E3]     regenerate the paper's tables/figures
//	lclgrid classify -problem 4col   run the one-sided classification oracle
//	lclgrid synth -problem 4col -k 3 synthesize a normal-form algorithm
//	lclgrid run -problem 4col        solve on an n×n torus via the registry's solver
//	lclgrid labels -problem mis      label one window of an arbitrarily large torus
//	lclgrid batch [-workers 8]       stream JSONL SolveRequests from stdin
//	lclgrid serve [-addr host:port]  serve solve/batch/explain over HTTP with Prometheus metrics
//	lclgrid cachesvc [-dir d]        serve the fleet's shared blob/lease cache
//	lclgrid gateway -shards a,b      front a fleet: route and fan out by fingerprint
//	lclgrid warm [-cache-dir d]      pre-synthesize the registry catalogue
//	lclgrid table                    print the Theorem 22 orientation table
//	lclgrid version                  print the module version and VCS revision
//
// batch, serve and warm accept -cache-dir to persist synthesized lookup
// tables across invocations, and -v to log engine events to stderr as
// structured slog lines (-log json switches them to JSON);
// `batch -explain` prints each request's plan as JSONL instead of
// solving, and `serve -warm` pre-synthesizes the catalogue before the
// listener opens.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"text/tabwriter"
	"time"

	lclgrid "lclgrid"
	"lclgrid/internal/experiments"
	"lclgrid/internal/orient"
)

// engine is the process-wide solving service for the subcommands without
// engine flags; batch and warm build their own (cache directory and
// observer are per-invocation configuration).
var engine = lclgrid.NewEngine()

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	// One signal-scoped context for the whole invocation: Ctrl-C (or a
	// supervisor's SIGTERM) cancels in-flight solves at their next
	// checkpoint instead of killing the process mid-write — and tells
	// `serve` to drain gracefully.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var err error
	switch os.Args[1] {
	case "list":
		err = cmdList(os.Args[2:], os.Stdout)
	case "explain":
		err = cmdExplain(os.Args[2:], os.Stdin, os.Stdout)
	case "define":
		err = cmdDefine(ctx, os.Args[2:], os.Stdin, os.Stdout)
	case "experiments":
		err = cmdExperiments(ctx, os.Args[2:])
	case "classify":
		err = cmdClassify(ctx, os.Args[2:])
	case "synth":
		err = cmdSynth(ctx, os.Args[2:])
	case "run":
		err = cmdRun(ctx, os.Args[2:])
	case "labels":
		err = cmdLabels(ctx, os.Args[2:], os.Stdout)
	case "batch":
		err = cmdBatch(ctx, os.Args[2:], os.Stdin, os.Stdout)
	case "serve":
		err = cmdServe(ctx, os.Args[2:], os.Stdout)
	case "cachesvc":
		err = cmdCachesvc(ctx, os.Args[2:], os.Stdout)
	case "gateway":
		err = cmdGateway(ctx, os.Args[2:], os.Stdout)
	case "warm":
		err = cmdWarm(ctx, os.Args[2:], os.Stdout)
	case "table":
		err = cmdTable()
	case "version":
		err = cmdVersion(os.Stdout)
	default:
		unknownSubcommand(os.Args[1])
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lclgrid:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: lclgrid <list|explain|define|experiments|classify|synth|run|labels|batch|serve|cachesvc|gateway|warm|table|version> [flags]")
}

// newEngine is the engine constructor behind buildEngine — a variable so
// tests can inject a custom registry (e.g. an unwarmable catalogue for
// the warm partial-failure tests) under the real subcommand code paths.
var newEngine = lclgrid.NewEngine

// buildEngine constructs the engine for subcommands with engine flags:
// an optional disk-persisted synthesis cache, an optional structured
// stderr event logger (-v; -log selects text or json), and any extra
// engine options the subcommand needs (metrics observers, synthesis
// worker bounds).
func buildEngine(verbose bool, logFormat, cacheDir string, extra ...lclgrid.EngineOption) (*lclgrid.Engine, error) {
	var opts []lclgrid.EngineOption
	if cacheDir != "" {
		cache, err := lclgrid.NewDiskCache(cacheDir, lclgrid.NewMemoryCache())
		if err != nil {
			return nil, err
		}
		opts = append(opts, lclgrid.WithCache(cache))
	}
	if verbose {
		opts = append(opts, lclgrid.WithObserver(newSlogObserver(newLogger(logFormat, verbose))))
	}
	opts = append(opts, extra...)
	return newEngine(opts...), nil
}

// newLogger builds the process's structured logger: slog to stderr,
// "json" for machine-readable lines, anything else the text handler.
// Verbose invocations log at Debug (every engine event), quiet ones at
// Info.
func newLogger(format string, verbose bool) *slog.Logger {
	level := slog.LevelInfo
	if verbose {
		level = slog.LevelDebug
	}
	opts := &slog.HandlerOptions{Level: level}
	if format == "json" {
		return slog.New(slog.NewJSONHandler(os.Stderr, opts))
	}
	return slog.New(slog.NewTextHandler(os.Stderr, opts))
}

// slogObserver is the -v observer: one structured log line per engine
// event (the successor of the ad-hoc printf logger — same events, but
// each field is queryable and `-log json` makes them machine-readable).
type slogObserver struct {
	l *slog.Logger
}

func newSlogObserver(l *slog.Logger) *slogObserver {
	return &slogObserver{l: l.With(slog.String("component", "engine"))}
}

func reqLabel(req lclgrid.SolveRequest) string {
	name := req.Key
	if name == "" && req.Problem != nil {
		name = req.Problem.Name()
	}
	switch {
	case len(req.Sides) > 0:
		return fmt.Sprintf("%s sides=%v", name, req.Sides)
	case req.N > 0:
		return fmt.Sprintf("%s n=%d", name, req.N)
	}
	return name
}

// Observe implements lclgrid.Observer: failures log at Info, everything
// else at Debug. Remote-cache traffic is left to the metrics.
func (o *slogObserver) Observe(ev lclgrid.Event) {
	switch ev.Kind {
	case lclgrid.EventRequestStart:
		o.l.Debug("request start", "req", reqLabel(ev.Request))
	case lclgrid.EventRequestEnd:
		if ev.Err != nil {
			o.l.Info("request end", "req", reqLabel(ev.Request), "error", ev.Err.Error())
			return
		}
		o.l.Debug("request end", "req", reqLabel(ev.Request), "solver", ev.Result.Solver,
			"rounds", ev.Result.Rounds, "elapsed", roundUS(ev.Result.Elapsed))
	case lclgrid.EventPlanBuilt:
		kinds := make([]string, len(ev.Plan.Strategies))
		for i, s := range ev.Plan.Strategies {
			kinds[i] = string(s.Kind)
			if s.Skip != "" {
				kinds[i] += "(skip)"
			}
		}
		o.l.Debug("plan built", "req", reqLabel(ev.Request), "plan", strings.Join(kinds, " → "))
	case lclgrid.EventStrategyStart:
		o.l.Debug("strategy start", "req", reqLabel(ev.Request), "kind", string(ev.Strategy.Kind))
	case lclgrid.EventStrategyEnd:
		if ev.Err != nil {
			o.l.Info("strategy end", "req", reqLabel(ev.Request), "kind", string(ev.Strategy.Kind), "error", ev.Err.Error())
			return
		}
		o.l.Debug("strategy end", "req", reqLabel(ev.Request), "kind", string(ev.Strategy.Kind), "solver", ev.Result.Solver)
	case lclgrid.EventFallback:
		o.l.Info("fallback to Θ(n) baseline", "req", reqLabel(ev.Request), "cause", ev.Err.Error())
	case lclgrid.EventCacheHit:
		o.l.Debug("cache hit", "key", ev.Key.String())
	case lclgrid.EventCacheMiss:
		o.l.Debug("cache miss", "key", ev.Key.String())
	case lclgrid.EventCacheEvict:
		o.l.Debug("cache evict", "key", ev.Key.String())
	case lclgrid.EventSynthesisStart:
		o.l.Debug("synthesis start", "key", ev.Key.String())
	case lclgrid.EventSynthesisEnd:
		if ev.Err != nil {
			o.l.Info("synthesis end", "key", ev.Key.String(), "elapsed", roundUS(ev.Elapsed), "error", ev.Err.Error())
			return
		}
		o.l.Debug("synthesis end", "key", ev.Key.String(), "elapsed", roundUS(ev.Elapsed))
	case lclgrid.EventWindowStart:
		o.l.Debug("window start", "key", ev.Label.Key)
	case lclgrid.EventWindowEnd:
		if ev.Err != nil {
			o.l.Info("window end", "key", ev.Label.Key, "elapsed", roundUS(ev.Elapsed), "error", ev.Err.Error())
			return
		}
		o.l.Debug("window end", "key", ev.Label.Key, "elapsed", roundUS(ev.Elapsed),
			"window_nodes", ev.Stats.WindowNodes, "halo_nodes", ev.Stats.HaloNodes)
	}
}

// roundUS renders a duration at microsecond resolution for log fields.
func roundUS(d time.Duration) string { return d.Round(time.Microsecond).String() }

// lookup resolves a problem key against the engine's registry.
func lookup(key string) (*lclgrid.ProblemSpec, error) {
	return engine.Registry().Lookup(key)
}

// cmdList prints the registry contents so the CLI is discoverable; -v
// adds each spec's plan hint (the strategy column), so the registered
// class, minimum torus side and attempt shapes are cross-checkable
// against `lclgrid explain` output.
func cmdList(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	verbose := fs.Bool("v", false, "include each key's plan hint (strategy and attempt shapes)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	header := "KEY\tPROBLEM\tDIMS\tLABELS\tCLASS\tMIN SIDE"
	if *verbose {
		header += "\tSOURCE\tSTRATEGY"
	}
	fmt.Fprintln(tw, header)
	for _, spec := range engine.Registry().Specs() {
		labels := fmt.Sprint(spec.NumLabels)
		if spec.NumLabels == 0 {
			labels = "-"
		}
		side := fmt.Sprint(spec.MinSide)
		if spec.SideModulus > 1 {
			side += fmt.Sprintf(" (mult of %d)", spec.SideModulus)
		}
		line := fmt.Sprintf("%s\t%s\t%d\t%s\t%s\t%s",
			spec.Key, spec.Name, spec.Dims, labels, spec.Class, side)
		if *verbose {
			line += "\t" + spec.SourceLabel() + "\t" + spec.StrategySummary(engine)
		}
		fmt.Fprintln(tw, line)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nfamilies: <k>col, <k>edgecol, orient<digits 0-4>")
	return nil
}

// cmdExplain prints the ranked Plan for one SolveRequest without
// solving it — and, because planning performs no SAT work, without any
// synthesis cost:
//
//	lclgrid explain '{"key":"4col","n":8}'
//
// The request is the same JSON document `lclgrid batch` consumes (read
// from stdin when no argument is given). -compact prints one line
// instead of indented JSON.
func cmdExplain(args []string, in io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	compact := fs.Bool("compact", false, "print the plan as a single JSON line")
	if err := fs.Parse(args); err != nil {
		return err
	}
	doc := strings.TrimSpace(strings.Join(fs.Args(), " "))
	if doc == "" {
		data, err := io.ReadAll(in)
		if err != nil {
			return err
		}
		doc = strings.TrimSpace(string(data))
	}
	if doc == "" {
		return fmt.Errorf("explain needs a JSON SolveRequest (argument or stdin), e.g. '{\"key\":\"4col\",\"n\":8}'")
	}
	var req lclgrid.SolveRequest
	if err := json.Unmarshal([]byte(doc), &req); err != nil {
		return fmt.Errorf("bad request document: %w", err)
	}
	plan, err := engine.Plan(req)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(out)
	if !*compact {
		enc.SetIndent("", "  ")
	}
	return enc.Encode(plan)
}

func cmdExperiments(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	id := fs.String("id", "", "run a single experiment id (e.g. E3)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	for _, e := range experiments.All() {
		if err := ctx.Err(); err != nil {
			// A signal landing inside a non-engine experiment (pure
			// computation, ctx unused) is still honoured between
			// experiments.
			return err
		}
		if *id != "" && e.ID != *id {
			continue
		}
		fmt.Printf("=== %s: %s ===\n", e.ID, e.Title)
		if err := e.Run(ctx, os.Stdout); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}

func cmdClassify(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("classify", flag.ExitOnError)
	name := fs.String("problem", "4col", "problem key (see `lclgrid list`)")
	maxK := fs.Int("maxk", 3, "largest anchor power to try")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := lookup(*name)
	if err != nil {
		return err
	}
	if spec.Problem == nil {
		fmt.Printf("%s: %s (by Theorem 3 the oracle does not apply to L_M)\n", spec.Name, spec.Class)
		return nil
	}
	p := spec.Problem()
	res := engine.Classify(ctx, p, *maxK)
	if res.Err != nil {
		return res.Err
	}
	fmt.Printf("%s: %s (registry: %s)\n", p, res.Class, spec.Class)
	for _, a := range res.Attempts {
		fmt.Printf("  k=%d window %dx%d tiles=%d success=%v\n", a.K, a.H, a.W, a.NumTiles, a.Success)
	}
	return nil
}

func cmdSynth(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("synth", flag.ExitOnError)
	name := fs.String("problem", "4col", "problem key (see `lclgrid list`)")
	k := fs.Int("k", 3, "anchor power")
	h := fs.Int("h", 0, "window height (0 = paper default)")
	w := fs.Int("w", 0, "window width (0 = paper default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := lookup(*name)
	if err != nil {
		return err
	}
	if spec.Problem == nil {
		return fmt.Errorf("%s has no SFT form to synthesize against", spec.Name)
	}
	p := spec.Problem()
	dh, dw := lclgrid.DefaultWindow(*k)
	if *h == 0 {
		*h = dh
	}
	if *w == 0 {
		*w = dw
	}
	alg, cached, err := engine.Synthesize(ctx, p, *k, *h, *w)
	if err != nil {
		return err
	}
	fmt.Printf("synthesized %s: k=%d window %dx%d tiles=%d decisions=%d conflicts=%d cached=%v\n",
		p.Name(), alg.K, alg.H, alg.W, alg.Graph.NumTiles(),
		alg.SolverStats.Decisions, alg.SolverStats.Conflicts, cached)
	return nil
}

func cmdRun(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	name := fs.String("problem", "4col", "problem key (see `lclgrid list`)")
	k := fs.Int("k", 0, "force synthesis with this anchor power (0 = registry solver)")
	n := fs.Int("n", 0, "torus side (0 = smallest the solver supports)")
	seed := fs.Int64("seed", 1, "identifier seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := lookup(*name)
	if err != nil {
		return err
	}
	if *n < 0 {
		return fmt.Errorf("torus side must be positive, got %d", *n)
	}
	if *n == 0 {
		// Pick the smallest side the registered solver supports. An
		// explicit -n is honoured even when it violates the side hints:
		// running a global problem on an "impossible" torus is exactly
		// how unsolvability certificates are produced.
		*n = spec.SmallestSide()
	}
	// Pass explicit IDs rather than Seed: the request's Seed field treats
	// 0 as "sequential", but the flag's -seed 0 means the seed-0
	// permutation (the historical CLI behaviour).
	res, err := engine.Solve(ctx, lclgrid.SolveRequest{
		Key: *name, N: *n, IDs: lclgrid.PermutedIDs(*n**n, *seed), Power: *k,
	})
	if err != nil {
		return err
	}
	fmt.Printf("%s on %d×%d torus: %v (log*(n²)=%d, %v)\n", spec.Name, *n, *n, res, lclgrid.LogStar(*n**n), res.Elapsed.Round(time.Microsecond))
	return nil
}

func cmdWarm(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("warm", flag.ExitOnError)
	problems := fs.String("problems", "", "comma-separated registry keys (empty = every registered key)")
	cacheDir := fs.String("cache-dir", "", "persist synthesized tables under this directory")
	verbose := fs.Bool("v", false, "log engine events to stderr")
	logFormat := fs.String("log", "text", `structured log format: "text" or "json"`)
	if err := fs.Parse(args); err != nil {
		return err
	}
	eng, err := buildEngine(*verbose, *logFormat, *cacheDir)
	if err != nil {
		return err
	}
	var keys []string
	if *problems != "" {
		for _, k := range strings.Split(*problems, ",") {
			if k = strings.TrimSpace(k); k != "" {
				keys = append(keys, k)
			}
		}
	}
	start := time.Now()
	ws, err := eng.Warm(ctx, keys...)
	// Print the (possibly partial) stats even on failure: the operator
	// should see how far the sweep got before the error.
	line := fmt.Sprintf("warm: %d problems examined, %d warmed, %d skipped (no synthesis), %d syntheses performed",
		ws.Problems, ws.Warmed, ws.Skipped, ws.Syntheses)
	if ws.Failed > 0 {
		line += fmt.Sprintf(", %d failed", ws.Failed)
	}
	fmt.Fprintf(out, "%s, %v\n", line, time.Since(start).Round(time.Millisecond))
	return err
}

// batchLine is one JSONL output record of `lclgrid batch`: the index and
// key echo the request; exactly one of result, plan (-explain mode) and
// error is present.
type batchLine struct {
	Index  int             `json:"index"`
	Key    string          `json:"key,omitempty"`
	Result *lclgrid.Result `json:"result,omitempty"`
	Plan   *lclgrid.Plan   `json:"plan,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// decodedRequest is one element of the background decode stream: a
// request, or the decode error that ended the stream.
type decodedRequest struct {
	req lclgrid.SolveRequest
	err error
}

// cmdBatch streams JSONL SolveRequests from in to out end to end: a
// background goroutine decodes requests, the engine's SolveStream pulls
// them into a bounded worker pool as workers free up, and each result is
// encoded the moment it completes — by default in completion order
// (each line's "index" identifies its request), with -ordered buffering
// only as much as needed to restore input order. Memory stays
// O(workers) on the default path however long the input stream is.
// Per-request failures become {"error": ...} lines and do not fail the
// process; I/O and decode errors do, and a deadline/cancel that cost
// requests (failed them or stopped consumption early) sets a non-zero
// exit.
func cmdBatch(ctx context.Context, args []string, in io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("batch", flag.ExitOnError)
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	timeout := fs.Duration("timeout", 0, "deadline for the whole batch (0 = none)")
	labels := fs.Bool("labels", true, "include the labelling in result lines")
	stats := fs.Bool("stats", false, "print aggregate batch stats to stderr")
	ordered := fs.Bool("ordered", false, "emit results in input order instead of completion order")
	explain := fs.Bool("explain", false, "print each request's ranked plan instead of solving it")
	cacheDir := fs.String("cache-dir", "", "persist synthesized tables under this directory")
	verbose := fs.Bool("v", false, "log engine events to stderr")
	logFormat := fs.String("log", "text", `structured log format: "text" or "json"`)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	eng, err := buildEngine(*verbose, *logFormat, *cacheDir)
	if err != nil {
		return err
	}

	// The decoder goroutine is the only reader of `in`; it ends the
	// stream by closing the channel (after an error element for anything
	// but EOF). It may outlive cmdBatch blocked in Decode — that is fine,
	// the process is about to exit and nothing waits on it.
	reqCh := make(chan decodedRequest)
	go func() {
		defer close(reqCh)
		dec := json.NewDecoder(bufio.NewReader(in))
		for {
			var req lclgrid.SolveRequest
			if err := dec.Decode(&req); err != nil {
				if err != io.EOF {
					reqCh <- decodedRequest{err: err}
				}
				return
			}
			reqCh <- decodedRequest{req: req}
		}
	}()

	if *explain {
		// Plan-only mode: every request becomes a plan line, no solver
		// runs and (planning is probe-only) no SAT call is made.
		enc := json.NewEncoder(out)
		index := 0
		for d := range reqCh {
			if d.err != nil {
				return fmt.Errorf("request %d: %w", index, d.err)
			}
			line := batchLine{Index: index, Key: d.req.Key}
			if plan, err := eng.Plan(d.req); err != nil {
				line.Error = err.Error()
			} else {
				line.Plan = plan
			}
			if err := enc.Encode(line); err != nil {
				return err
			}
			index++
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		return nil
	}

	// keys echoes each request's problem key onto its output line; the
	// map holds only in-flight indexes (deleted once emitted), keeping
	// the streaming path O(workers). It is written by the request
	// sequence (SolveStream's producer goroutine) and read by the
	// consuming loop below.
	var (
		keyMu sync.Mutex
		keys  = make(map[int]string)
	)
	// produceErr is written by the request sequence and read only after
	// the stream is fully drained (the stream's goroutines form the
	// happens-before edge).
	var produceErr error
	consumed := 0
	reqSeq := func(yield func(lclgrid.SolveRequest) bool) {
		// consume records one decoded element's bookkeeping (key echo,
		// decode-error formatting) and hands the request to the stream;
		// it reports whether the sequence should keep going.
		consume := func(d decodedRequest, ok bool) bool {
			if !ok {
				return false // clean EOF
			}
			if d.err != nil {
				produceErr = fmt.Errorf("request %d: %w", consumed, d.err)
				return false
			}
			keyMu.Lock()
			keys[consumed] = d.req.Key
			keyMu.Unlock()
			consumed++
			return yield(d.req)
		}
		for {
			select {
			case d, ok := <-reqCh:
				if !consume(d, ok) {
					return
				}
			case <-ctx.Done():
				// Expired while waiting for input. A deadline firing right
				// as the input finishes must not fail a fully-served
				// batch, so re-check the channel without blocking: a clean
				// close is EOF, a pending request is consumed (it still
				// gets its one — ctx-error — output line) and only then is
				// the run marked truncated.
				select {
				case d, ok := <-reqCh:
					if ok && d.err == nil {
						produceErr = ctx.Err()
					}
					consume(d, ok)
				default:
					produceErr = ctx.Err()
				}
				return
			}
		}
	}

	enc := json.NewEncoder(out)
	var total lclgrid.BatchStats
	var itemCtxErr error
	start := time.Now()
	emit := func(it lclgrid.BatchItem) error {
		keyMu.Lock()
		key := keys[it.Index]
		delete(keys, it.Index)
		keyMu.Unlock()
		line := batchLine{Index: it.Index, Key: key}
		total.Requests++
		if it.Err != nil {
			total.Errors++
			line.Error = it.Err.Error()
			if lclgrid.IsContextError(it.Err) {
				itemCtxErr = it.Err
			}
		} else {
			if it.Result != nil && it.Result.CacheHit {
				total.CacheHits++
			}
			line.Result = it.Result
			if !*labels && line.Result != nil {
				stripped := *line.Result
				stripped.Labels = nil
				line.Result = &stripped
			}
		}
		return enc.Encode(line)
	}

	stream := eng.SolveStream(ctx, reqSeq, lclgrid.WithWorkers(*workers))
	if *ordered {
		stream = lclgrid.Reordered(stream)
	}
	for it := range stream {
		if err := emit(it); err != nil {
			return err
		}
	}
	total.Wall = time.Since(start)

	if *stats {
		fmt.Fprintf(os.Stderr, "batch: %d requests, %d errors, %d cache hits, %v wall\n",
			total.Requests, total.Errors, total.CacheHits, total.Wall.Round(time.Millisecond))
	}
	if produceErr != nil && !lclgrid.IsContextError(produceErr) {
		return produceErr // a decode error names its request
	}
	if itemCtxErr != nil {
		return itemCtxErr
	}
	return produceErr
}

func cmdTable() error {
	fmt.Println("Theorem 22: X-orientation classification")
	for _, row := range orient.Table() {
		fmt.Printf("X=%-12v %s\n", row.X, row.Class)
	}
	return nil
}

package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"runtime/debug"
	"sync/atomic"
	"time"

	lclgrid "lclgrid"
	"lclgrid/internal/ring"
)

// cmdServe boots the HTTP serving subsystem: the Engine mounted behind
// POST /v1/solve, POST /v1/batch (JSONL streaming), POST /v1/explain,
// GET /v1/problems, GET /healthz, GET /readyz and GET /metrics
// (Prometheus text format), with bounded in-flight admission,
// per-request timeouts, request body limits and graceful drain on
// SIGINT/SIGTERM.
//
//	lclgrid serve -addr 127.0.0.1:8080 -cache-dir .cache -warm
//
// -warm pre-synthesizes the catalogue in the background once the
// listener is up; /readyz answers 503 until the sweep completes, so a
// supervisor holds traffic while the replica warms without declaring it
// dead. With -cache-dir the warmed tables persist and a restarted
// server warms with zero syntheses. -problems-dir persists user problem
// registrations (POST /v1/problems) the same way: on boot they
// re-register into the catalogue and join the warm sweep, so a restart
// with both directories re-serves user problems with zero syntheses.
//
// Fleet flags:
//
//   - -remote-cache URL layers the shared cache service under the local
//     cache (see `lclgrid cachesvc`): tables synthesized anywhere in the
//     fleet become local hits, and the lease protocol (-lease-ttl,
//     -cache-wait) makes each cold synthesis happen exactly once
//     cluster-wide.
//   - -self and -peers place this replica on the fleet's consistent-hash
//     ring: -warm then only synthesizes the catalogue slice this replica
//     owns, and the rest of its owned slice is pulled from the shared
//     store instead of re-synthesized.
//   - -cache-service additionally mounts the blob/lease service under
//     /v1/cache/ on this replica, so a small fleet can share one
//     replica's cache instead of running a separate cachesvc.
func cmdServe(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (host:port; :0 picks an ephemeral port)")
	workers := fs.Int("workers", 0, "worker pool size per /v1/batch stream (0 = GOMAXPROCS)")
	cacheDir := fs.String("cache-dir", "", "persist synthesized tables under this directory")
	problemsDir := fs.String("problems-dir", "", "persist user-registered problem definitions (POST /v1/problems) under this directory; they re-register on boot")
	warm := fs.Bool("warm", false, "pre-synthesize the registry catalogue in the background; /readyz gates on completion")
	timeout := fs.Duration("timeout", lclgrid.DefaultRequestTimeout, "per-request solve deadline (0 = none)")
	maxInflight := fs.Int("max-inflight", lclgrid.DefaultMaxInflight, "admission bound on concurrent solve/batch requests (0 = unbounded)")
	maxBody := fs.Int64("max-body", lclgrid.DefaultMaxBodyBytes, "request body size cap in bytes (0 = unbounded)")
	drain := fs.Duration("drain", lclgrid.DefaultDrainTimeout, "graceful-shutdown drain window for in-flight requests")
	remoteCache := fs.String("remote-cache", "", "base URL of the shared cache service (e.g. http://cache:8090)")
	leaseTTL := fs.Duration("lease-ttl", 15*time.Second, "cluster synthesis lease TTL (with -remote-cache)")
	cacheWait := fs.Duration("cache-wait", 60*time.Second, "longest wait on another replica's in-flight synthesis before synthesizing locally")
	self := fs.String("self", "", "this replica's name on the fleet ring (must appear in -peers)")
	peers := fs.String("peers", "", "comma-separated names of every fleet replica (enables ring-sliced warming)")
	cacheService := fs.Bool("cache-service", false, "mount the blob/lease cache service under /v1/cache/ (backed by -cache-dir when set)")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address (debug only; e.g. 127.0.0.1:6060)")
	verbose := fs.Bool("v", false, "log engine events to stderr")
	logFormat := fs.String("log", "text", `structured log format: "text" or "json"`)
	slowReq := fs.Duration("slow", 0, "log the full span tree of any request slower than this (0 = never)")
	traceBuffer := fs.Int("trace-buffer", lclgrid.DefaultTraceBufferSize, "completed traces kept for GET /debug/traces (0 disables tracing)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	traces, tracesHandler := newTraceBuffer(*traceBuffer, *logFormat, *verbose, *slowReq)
	if err := startPprof(*pprofAddr, out, tracesHandler); err != nil {
		return err
	}

	metrics := lclgrid.NewMetricsObserver()
	metrics.SetBuildInfo(buildIdentity())
	if traces != nil {
		metrics.SetTraceStatsFunc(traces.Stats)
	}
	engineOpts := []lclgrid.EngineOption{lclgrid.WithObserver(metrics)}
	// With a remote cache the layering is memory → disk → fleet: the
	// explicit stack replaces buildEngine's cache-dir handling.
	var remote *lclgrid.RemoteCache
	builderCacheDir := *cacheDir
	if *remoteCache != "" {
		var inner lclgrid.SynthCache = lclgrid.NewMemoryCache()
		if *cacheDir != "" {
			var err error
			inner, err = lclgrid.NewDiskCache(*cacheDir, inner)
			if err != nil {
				return err
			}
			builderCacheDir = ""
		}
		var err error
		remote, err = lclgrid.NewRemoteCache(*remoteCache, inner,
			lclgrid.WithLeaseTTL(*leaseTTL),
			lclgrid.WithLeaseWait(*cacheWait),
		)
		if err != nil {
			return err
		}
		builderCacheDir = ""
		engineOpts = append(engineOpts, lclgrid.WithCache(remote))
	}
	eng, err := buildEngine(*verbose, *logFormat, builderCacheDir, engineOpts...)
	if err != nil {
		return err
	}

	// Ring membership: -peers names every replica, -self this one. Warm
	// then covers only the owned catalogue slice.
	owns, err := ringOwnership(*self, *peers)
	if err != nil {
		return err
	}

	// Persisted user problems re-register before the listener opens, so
	// the registry (and the warm sweep below) serves them from the first
	// request — a restart with the same -problems-dir and -cache-dir
	// re-solves user problems with zero syntheses.
	var problemStore lclgrid.ProblemStore
	if *problemsDir != "" {
		problemStore, err = lclgrid.NewDirProblemStore(*problemsDir)
		if err != nil {
			return err
		}
		restored := 0
		for _, sp := range problemStore.List() {
			if _, _, derr := eng.DefineProblem(sp.Def); derr != nil {
				fmt.Fprintf(os.Stderr, "lclgrid: problems-dir: skipping %s: %v\n", sp.Key, derr)
				continue
			}
			restored++
		}
		if restored > 0 {
			fmt.Fprintf(out, "lclgrid: restored %d user problem(s) from %s\n", restored, *problemsDir)
		}
	}

	serverOpts := []lclgrid.ServerOption{
		lclgrid.WithMetricsObserver(metrics),
		lclgrid.WithMaxInflight(*maxInflight),
		lclgrid.WithRequestTimeout(*timeout),
		lclgrid.WithMaxBodyBytes(*maxBody),
		lclgrid.WithBatchWorkers(*workers),
		lclgrid.WithDrainTimeout(*drain),
	}
	if traces != nil {
		serverOpts = append(serverOpts, lclgrid.WithServerTracing(traces))
	}
	if problemStore != nil {
		serverOpts = append(serverOpts, lclgrid.WithProblemStore(problemStore))
	}
	if *cacheService {
		var store lclgrid.BlobStore
		if *cacheDir != "" {
			store, err = lclgrid.NewDirBlobStore(*cacheDir)
			if err != nil {
				return err
			}
		}
		serverOpts = append(serverOpts, lclgrid.WithCacheService(lclgrid.NewCacheServer(store)))
	}

	// Readiness: unready until warm-on-boot finishes (immediately ready
	// without -warm). The warm sweep runs in the background after the
	// listener opens — liveness (/healthz) is up the whole time, and the
	// supervisor watches /readyz to start routing.
	var warming atomic.Bool
	warming.Store(*warm)
	serverOpts = append(serverOpts, lclgrid.WithReadyCheck(func() error {
		if warming.Load() {
			return errors.New("lclgrid: warm-on-boot in progress")
		}
		return nil
	}))

	srv := lclgrid.NewServer(eng, serverOpts...)
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "lclgrid: serving on http://%s\n", l.Addr())

	if *warm {
		go func() {
			defer warming.Store(false)
			start := time.Now()
			if remote != nil {
				// Pull the owned slice from the shared store first: every
				// record pulled is a synthesis the sweep below skips.
				if n, err := remote.PullOwned(ctx, owns); err == nil && n > 0 {
					fmt.Fprintf(out, "lclgrid: pulled %d cached tables from the fleet store\n", n)
				}
			}
			keys, any := ownedKeys(eng, owns)
			if !any {
				fmt.Fprintln(out, "lclgrid: warm-on-boot: this replica owns no catalogue keys")
				return
			}
			ws, err := eng.Warm(ctx, keys...)
			if err != nil {
				if ctx.Err() != nil {
					return // shutting down mid-warm
				}
				// A partially-warm replica still serves (cold keys just pay
				// their synthesis on first request) — readiness proceeds.
				fmt.Fprintf(os.Stderr, "lclgrid: warm-on-boot: %v\n", err)
			}
			fmt.Fprintf(out, "lclgrid: warmed %d/%d problems (%d syntheses) in %v\n",
				ws.Warmed, ws.Problems, ws.Syntheses, time.Since(start).Round(time.Millisecond))
		}()
	}

	if err := srv.Serve(ctx, l); err != nil {
		return err
	}
	fmt.Fprintln(out, "lclgrid: drained in-flight requests, shutting down")
	return nil
}

// ringOwnership turns the -self/-peers flags into the ownership
// predicate warm-on-boot filters with. Without -peers every key is
// owned (nil predicate); with them, -self must name one of the peers.
func ringOwnership(self, peers string) (func(lclgrid.SynthKey) bool, error) {
	if peers == "" {
		if self != "" {
			return nil, errors.New("-self needs -peers (the full replica list)")
		}
		return nil, nil
	}
	members := splitList(peers)
	if self == "" {
		return nil, errors.New("-peers needs -self (this replica's name)")
	}
	found := false
	for _, m := range members {
		if m == self {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("-self %q is not in -peers %q", self, peers)
	}
	r, err := ring.New(members, 0)
	if err != nil {
		return nil, err
	}
	return func(key lclgrid.SynthKey) bool {
		return r.Owns(self, key.Fingerprint)
	}, nil
}

// ownedKeys filters the registry catalogue to the keys whose problem
// fingerprint this replica owns (every key when owns is nil). The
// second result is false when the replica owns nothing — a legal
// outcome on a big fleet with a small catalogue, and one the caller
// must distinguish from "warm everything" (Warm's zero-key default).
func ownedKeys(eng *lclgrid.Engine, owns func(lclgrid.SynthKey) bool) ([]string, bool) {
	if owns == nil {
		return nil, true // Warm's default: the whole catalogue
	}
	var keys []string
	for _, key := range eng.Registry().Keys() {
		spec, err := eng.Registry().Lookup(key)
		if err != nil || spec.Problem == nil {
			keys = append(keys, key) // direct/skipped keys cost Warm nothing
			continue
		}
		if owns(lclgrid.SynthKey{Fingerprint: spec.Problem().Fingerprint()}) {
			keys = append(keys, key)
		}
	}
	return keys, len(keys) > 0
}

// vcsRevision extracts the (shortened) VCS revision from embedded build
// info, with the commit timestamp when recorded and whether the working
// tree was dirty. Empty rev when the binary was built outside a
// checkout.
func vcsRevision(bi *debug.BuildInfo) (rev, vcsTime string, dirty bool) {
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.time":
			vcsTime = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	return rev, vcsTime, dirty
}

// buildIdentity names this binary for the lclgrid_build_info metric:
// the module version and VCS revision from debug.ReadBuildInfo, with
// "unknown" placeholders when the toolchain embedded nothing.
func buildIdentity() (version, revision string) {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown", "unknown"
	}
	version = bi.Main.Version
	if version == "" {
		version = "(devel)"
	}
	rev, _, dirty := vcsRevision(bi)
	if rev == "" {
		return version, "unknown"
	}
	if dirty {
		rev += "+dirty"
	}
	return version, rev
}

// cmdVersion prints the module version and the VCS revision embedded by
// the Go toolchain (debug.ReadBuildInfo), so a deployed binary can name
// the commit it was built from.
func cmdVersion(out io.Writer) error {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return errors.New("no build info embedded in this binary")
	}
	version := bi.Main.Version
	if version == "" {
		version = "(devel)"
	}
	line := "lclgrid " + version
	rev, vcsTime, dirty := vcsRevision(bi)
	if rev != "" {
		line += " rev " + rev
		if dirty {
			line += "+dirty"
		}
		if vcsTime != "" {
			line += " (" + vcsTime + ")"
		}
	}
	line += " " + bi.GoVersion
	_, err := fmt.Fprintln(out, line)
	return err
}

// unknownSubcommand reports an unrecognised subcommand on stderr with
// the full subcommand list, for a non-zero exit in main.
func unknownSubcommand(name string) {
	fmt.Fprintf(os.Stderr, "lclgrid: unknown subcommand %q\n", name)
	usage()
}

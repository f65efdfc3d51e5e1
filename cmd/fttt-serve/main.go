// Command fttt-serve is the tracking-as-a-service daemon: a
// long-running HTTP/JSON server managing fault-tolerant tracking
// sessions (internal/serve) with micro-batched localization, bounded
// admission with load shedding, request deadlines, SSE estimate
// streams, and graceful drain on SIGTERM/SIGINT. The obs debug
// endpoints (/metrics, /debug/vars, /debug/pprof/) share the listener.
//
// Usage:
//
//	fttt-serve -addr :8080
//	fttt-serve -addr 127.0.0.1:0 -max-batch 32 -queue 512
//	fttt-serve -field-cache-dir /var/lib/fttt/fieldcache
//	fttt-serve -field-cache-dir /mnt/shared/fieldcache -migrate-grace 15s   # cluster member behind fttt-router
//
// Sessions share preprocessed field divisions through a
// content-addressed cache (internal/fieldcache); -field-cache-dir
// persists built divisions so a restarted server warm-starts without
// re-dividing. See the README's "Serving" section for a curl
// walkthrough of the API and the warm-restart flow.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fttt/internal/fieldcache"
	"fttt/internal/obs"
	"fttt/internal/serve"
)

func main() {
	var (
		addr          = flag.String("addr", ":8080", "listen address")
		maxBatch      = flag.Int("max-batch", 0, "micro-batch size ceiling (0 = default 16)")
		queue         = flag.Int("queue", 0, "per-session admission queue limit (0 = default 256)")
		timeout       = flag.Duration("timeout", 0, "default per-request deadline (0 = default 5s)")
		drainTimeout  = flag.Duration("drain-timeout", 30*time.Second, "grace period for in-flight requests on shutdown")
		migrateGrace  = flag.Duration("migrate-grace", 0, "after SIGTERM, hold quiesced sessions this long for a router to migrate them off before teardown (0 = tear down immediately)")
		traceRecords  = flag.Int("trace-records", 0, "per-session flight-recorder capacity in trace records (0 = tracing off)")
		fieldCacheDir = flag.String("field-cache-dir", "", "directory persisting preprocessed field divisions across restarts (empty = in-memory only)")
		fieldCacheMax = flag.Int("field-cache-max", 0, "max resident cached divisions, LRU-evicted when unpinned (0 = unbounded)")
	)
	flag.Parse()
	if err := run(*addr, *maxBatch, *queue, *timeout, *drainTimeout, *migrateGrace, *traceRecords, *fieldCacheDir, *fieldCacheMax); err != nil {
		fmt.Fprintln(os.Stderr, "fttt-serve:", err)
		os.Exit(1)
	}
}

func run(addr string, maxBatch int, queue int, timeout time.Duration, drainTimeout, migrateGrace time.Duration, traceRecords int, fieldCacheDir string, fieldCacheMax int) error {
	reg := obs.NewRegistry()
	build := obs.RegisterBuildInfo(reg)
	fcache, err := fieldcache.New(fieldcache.Config{
		Dir:        fieldCacheDir,
		MaxEntries: fieldCacheMax,
		Obs:        reg,
	})
	if err != nil {
		return err
	}
	srv := serve.New(serve.Config{
		MaxBatch:       maxBatch,
		QueueLimit:     queue,
		RequestTimeout: timeout,
		Obs:            reg,
		TraceRecords:   traceRecords,
		FieldCache:     fcache,
	})
	mux := http.NewServeMux()
	obs.Register(mux, reg)
	mux.Handle("/", srv)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: mux}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "fttt-serve: %s\n", build)
	fmt.Fprintf(os.Stderr, "fttt-serve: listening on http://%s (metrics at /metrics)\n", ln.Addr())
	if traceRecords > 0 {
		fmt.Fprintf(os.Stderr, "fttt-serve: flight recorder on (last %d records per session at /v1/sessions/{id}/debug/trace)\n", traceRecords)
	}
	if fieldCacheDir != "" {
		// Log both cache knobs together: operators sizing a shared
		// cluster spill dir need the eviction bound next to the path.
		if fieldCacheMax > 0 {
			fmt.Fprintf(os.Stderr, "fttt-serve: field-division cache spilling to %s (max %d resident divisions)\n", fieldCacheDir, fieldCacheMax)
		} else {
			fmt.Fprintf(os.Stderr, "fttt-serve: field-division cache spilling to %s (resident divisions unbounded)\n", fieldCacheDir)
		}
	} else if fieldCacheMax > 0 {
		fmt.Fprintf(os.Stderr, "fttt-serve: field-division cache in-memory only (max %d resident divisions)\n", fieldCacheMax)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errCh:
		return err
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "fttt-serve: %v: draining (up to %v)\n", s, drainTimeout)
	}

	// Drain first — refuse new work, let admitted requests finish, tear
	// sessions down — then close the listener. With -migrate-grace the
	// teardown is two-phase: quiesce (healthz turns 503, sessions stay
	// exportable), wait up to the grace period for a router to migrate
	// every session off (the table empties as it DELETEs them), then
	// tear down whatever is left.
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout+migrateGrace)
	defer cancel()
	if migrateGrace > 0 {
		if err := srv.Quiesce(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "fttt-serve: quiesce:", err)
		}
		wctx, wcancel := context.WithTimeout(ctx, migrateGrace)
		if err := srv.WaitEmpty(wctx); err != nil {
			fmt.Fprintf(os.Stderr, "fttt-serve: migrate grace elapsed with %d sessions unmigrated\n", srv.SessionCount())
		}
		wcancel()
	}
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "fttt-serve: drain:", err)
	}
	if err := hs.Shutdown(ctx); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "fttt-serve: stopped")
	return nil
}

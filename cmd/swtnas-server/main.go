// Command swtnas-server runs the NAS service: a long-lived HTTP/JSON server
// owning one shared evaluator pool and one journal directory, running many
// concurrent searches with per-tenant quotas and crash-safe resume. Submit
// searches with POST /v1/searches, stream progress from
// /v1/searches/{id}/events, fetch partial results from
// /v1/searches/{id}/topk, and scrape Prometheus metrics from /metrics. If
// the process is killed, restarting it against the same -data-dir resumes
// every unfinished search from its journal. A search's settings, its dtype
// and proxy mode among them, come only from its submission, which is
// persisted with it, so a restart resumes it with the same options.
//
// Usage:
//
//	swtnas-server -addr :8080 -data-dir /var/lib/swtnas
//	swtnas-server -addr :8080 -data-dir ./runs -pool-workers 8 -max-active 4
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"swtnas"
	"swtnas/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("swtnas-server: ")
	var (
		addr      = flag.String("addr", "127.0.0.1:8080", "listen address")
		dataDir   = flag.String("data-dir", "", "directory for search journals and metadata (required)")
		workers   = flag.Int("pool-workers", 0, "evaluator pool slots shared by all searches (0 = all cores)")
		maxActive = flag.Int("max-active", 0, "admission quota: concurrent searches across all tenants (0 = unlimited)")
		maxTenant = flag.Int("max-tenant", 0, "admission quota: concurrent searches per tenant (0 = unlimited)")
	)
	flag.Parse()
	if *dataDir == "" {
		log.Fatal("-data-dir is required")
	}

	s, err := serve.New(serve.Config{
		DataDir: *dataDir,
		Pool: swtnas.PoolOptions{
			Workers:              *workers,
			MaxActiveSearches:    *maxActive,
			MaxSearchesPerTenant: *maxTenant,
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: s, ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Printf("serving on http://%s (data dir %s)\n", *addr, *dataDir)

	// SIGINT/SIGTERM: stop accepting requests, then shut the search layer
	// down crash-like — running searches keep their journals unmarked, so
	// the next start resumes them.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		s.Close()
		log.Fatal(err)
	case <-ctx.Done():
	}
	fmt.Println("shutting down; unfinished searches resume on next start")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("http shutdown: %v", err)
	}
	s.Close()
}

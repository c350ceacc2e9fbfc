// Command swtnas-worker is a remote evaluator: it connects to a scheduler's
// coordinator over TCP, fetches candidate-evaluation tasks, trains them
// locally, and streams results (including checkpoints) back — the stand-in
// for the paper's per-GPU Ray evaluators.
//
// Usage:
//
//	swtnas-worker -addr 10.0.0.1:7077 -id node3-gpu0
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"swtnas/internal/cluster"
	"swtnas/internal/obs"
	"swtnas/internal/parallel"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("swtnas-worker: ")
	var (
		addr     = flag.String("addr", "127.0.0.1:7077", "coordinator address")
		id       = flag.String("id", "", "worker id (default host-pid)")
		kworkers = flag.Int("kernel-workers", 0, "compute-kernel pool size: cores this worker may use (0 = $"+parallel.EnvWorkers+" or all cores)")
		mAddr    = flag.String("metrics-addr", "", "serve live metrics JSON on this address at "+obs.MetricsPath+" (Prometheus text at "+obs.PromPath+")")
		beat     = flag.Duration("heartbeat", 2*time.Second, "liveness-ping period; the coordinator requeues this worker's tasks if pings stop")
	)
	flag.Parse()
	if *kworkers > 0 {
		// Several workers on one node partition its cores between them.
		parallel.SetWorkers(*kworkers)
	}
	if *mAddr != "" {
		srv, err := obs.Serve(*mAddr)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		log.Printf("metrics: %s", srv.URL())
	}
	workerID := *id
	if workerID == "" {
		host, _ := os.Hostname()
		workerID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	w := &cluster.Worker{ID: workerID, HeartbeatEvery: *beat}
	log.Printf("worker %s connecting to %s", workerID, *addr)
	if err := w.Run(*addr); err != nil {
		log.Fatal(err)
	}
	log.Printf("worker %s shut down cleanly", workerID)
}

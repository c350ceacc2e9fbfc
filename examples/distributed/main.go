// Distributed: run the scheduler/evaluator split over real TCP, the
// architecture of the paper's Figure 6 with net/rpc workers standing in for
// Ray evaluators. The search loop is the same nas.Run every other mode uses,
// proposing candidates with regularized evolution; the coordinator is its
// executor, and workers (here: three goroutines, but the same binary runs
// on other hosts via cmd/swtnas-worker) train them and stream checkpoints
// back; providers' checkpoints ride along inside child tasks.
//
//	go run ./examples/distributed
package main

import (
	"fmt"
	"log"
	"net"

	"swtnas/internal/cluster"
)

func main() {
	log.SetFlags(0)

	coordinator := cluster.NewCoordinator()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go coordinator.Serve(l) //nolint:errcheck // exits when the listener closes
	fmt.Printf("coordinator listening on %s\n", l.Addr())

	const workers = 3
	done := make(chan error, workers)
	for i := 0; i < workers; i++ {
		w := &cluster.Worker{ID: fmt.Sprintf("worker-%d", i)}
		go func() { done <- w.Run(l.Addr().String()) }()
	}
	fmt.Printf("%d workers connected\n\n", workers)

	tr, err := cluster.RunDistributed(coordinator, cluster.DistConfig{
		App:         "mnist",
		DataSeed:    1,
		Matcher:     "LCS",
		Budget:      24,
		Outstanding: workers,
		Seed:        3,
		N:           8,
		S:           4,
	})
	if err != nil {
		log.Fatal(err)
	}

	workersSeen := map[int]bool{}
	best := 0.0
	transferred := 0
	for _, r := range tr.Records {
		workersSeen[r.ParentID] = true
		if r.Score > best {
			best = r.Score
		}
		if r.TransferCopied > 0 {
			transferred++
		}
	}
	fmt.Printf("distributed search finished: %d candidates, best accuracy %.4f\n", len(tr.Records), best)
	fmt.Printf("%d candidates warm-started from checkpoints shipped over TCP\n", transferred)

	coordinator.Shutdown()
	for i := 0; i < workers; i++ {
		if err := <-done; err != nil {
			log.Fatal(err)
		}
	}
	l.Close()
	fmt.Println("workers shut down cleanly")
}

package nas

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"swtnas/internal/apps"
	"swtnas/internal/trace"
)

// stubEval returns an EvalFunc that records each executed task id under mu
// and produces a fixed-score result.
func stubEval(mu *sync.Mutex, order *[]string, label string) EvalFunc {
	return func(ctx context.Context, t Task) Result {
		mu.Lock()
		*order = append(*order, fmt.Sprintf("%s-%d", label, t.ID))
		mu.Unlock()
		return Result{Record: trace.Record{ID: t.ID, Arch: t.Arch, ParentID: t.ParentID, Score: 0.5}}
	}
}

func drain(t *testing.T, out chan Result, n int) []Result {
	t.Helper()
	res := make([]Result, 0, n)
	for i := 0; i < n; i++ {
		select {
		case r := <-out:
			res = append(res, r)
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out after %d of %d results", i, n)
		}
	}
	return res
}

// TestPoolWeightedRoundRobin pins the fair schedule on a single slot: two
// equal-weight clients alternate strictly; a weight-2 client is served twice
// per weight-1 turn.
func TestPoolWeightedRoundRobin(t *testing.T) {
	p := NewSharedPool(PoolConfig{Workers: 1})
	defer p.Close()
	var mu sync.Mutex
	var order []string

	a, err := p.Register(ClientConfig{Tenant: "a", Weight: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Register(ClientConfig{Tenant: "b", Weight: 1})
	if err != nil {
		t.Fatal(err)
	}
	outA := make(chan Result, 8)
	outB := make(chan Result, 8)
	// Queue everything before the slot can run: grab the schedule by
	// submitting from under an artificial backlog. Submit never blocks, so
	// queue 4 tasks per client back to back.
	for i := 0; i < 4; i++ {
		a.Submit(context.Background(), Task{ID: i}, stubEval(&mu, &order, "a"), outA)
		b.Submit(context.Background(), Task{ID: i}, stubEval(&mu, &order, "b"), outB)
	}
	drain(t, outA, 4)
	drain(t, outB, 4)
	a.Close()
	b.Close()

	// The first executed task may be either client's (the slot can pick up
	// a-0 before b-0 is queued); from index 1 on, equal weights must
	// alternate: no client is served twice in a row while the other has
	// queued work.
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 8 {
		t.Fatalf("executed %d tasks: %v", len(order), order)
	}
	for i := 2; i < len(order)-1; i++ {
		if order[i][0] == order[i-1][0] {
			t.Fatalf("client %c served twice in a row at %d: %v", order[i][0], i, order)
		}
	}
}

// TestPoolWeightBias checks a weight-2 client receives roughly double the
// service of a weight-1 client under contention.
func TestPoolWeightBias(t *testing.T) {
	p := NewSharedPool(PoolConfig{Workers: 1})
	defer p.Close()
	var mu sync.Mutex
	var order []string
	heavy, err := p.Register(ClientConfig{Tenant: "heavy", Weight: 2})
	if err != nil {
		t.Fatal(err)
	}
	light, err := p.Register(ClientConfig{Tenant: "light", Weight: 1})
	if err != nil {
		t.Fatal(err)
	}
	outH := make(chan Result, 12)
	outL := make(chan Result, 12)
	for i := 0; i < 12; i++ {
		heavy.Submit(context.Background(), Task{ID: i}, stubEval(&mu, &order, "h"), outH)
	}
	for i := 0; i < 12; i++ {
		light.Submit(context.Background(), Task{ID: i}, stubEval(&mu, &order, "l"), outL)
	}
	drain(t, outH, 12)
	drain(t, outL, 12)
	heavy.Close()
	light.Close()

	mu.Lock()
	defer mu.Unlock()
	// In the first 9 executions (both queues still contended), the heavy
	// client must have been served about twice as often.
	h := 0
	for _, s := range order[:9] {
		if s[0] == 'h' {
			h++
		}
	}
	if h < 5 || h > 7 {
		t.Fatalf("heavy served %d of first 9 (want ~6): %v", h, order)
	}
}

func TestPoolQuotas(t *testing.T) {
	p := NewSharedPool(PoolConfig{Workers: 1, MaxActive: 3, MaxPerTenant: 1})
	defer p.Close()
	a, err := p.Register(ClientConfig{Tenant: "a"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Register(ClientConfig{Tenant: "a"}); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("second search for tenant a: err = %v, want ErrQuotaExceeded", err)
	}
	b, err := p.Register(ClientConfig{Tenant: "b"})
	if err != nil {
		t.Fatalf("tenant b must be admitted: %v", err)
	}
	c, err := p.Register(ClientConfig{Tenant: "c"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Register(ClientConfig{Tenant: "d"}); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("fourth search: err = %v, want ErrQuotaExceeded (MaxActive)", err)
	}
	// Quota frees when a search ends.
	a.Close()
	a2, err := p.Register(ClientConfig{Tenant: "a"})
	if err != nil {
		t.Fatalf("tenant a after Close: %v", err)
	}
	a2.Close()
	b.Close()
	c.Close()
}

// TestPoolRetryAndFaultEvents pins the pool's bounded-retry contract: a
// transiently failing evaluation requeues (with a requeue event per retry)
// and succeeds within its attempt budget; a persistently failing one emits a
// terminal failed event and surfaces its error.
func TestPoolRetryAndFaultEvents(t *testing.T) {
	p := NewSharedPool(PoolConfig{Workers: 1})
	defer p.Close()
	var mu sync.Mutex
	var events []FaultEvent
	c, err := p.Register(ClientConfig{Tenant: "t", MaxAttempts: 3, OnFault: func(ev FaultEvent) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	attempts := 0
	flaky := func(ctx context.Context, task Task) Result {
		mu.Lock()
		attempts++
		n := attempts
		mu.Unlock()
		if n < 3 {
			return errResult(task, fmt.Errorf("transient %d", n))
		}
		return Result{Record: trace.Record{ID: task.ID, Score: 0.9}}
	}
	out := make(chan Result, 1)
	c.Submit(context.Background(), Task{ID: 7}, flaky, out)
	res := drain(t, out, 1)[0]
	if res.Err != nil || res.Score != 0.9 {
		t.Fatalf("flaky result = %+v", res)
	}
	mu.Lock()
	if len(events) != 2 {
		t.Fatalf("events = %+v, want 2 requeues", events)
	}
	for i, ev := range events {
		if ev.Kind != FaultRequeue || ev.CandidateID != 7 || ev.Attempt != i+1 {
			t.Fatalf("event %d = %+v", i, ev)
		}
	}
	events = nil
	mu.Unlock()

	// Persistent failure: budget spent, terminal failed event, error result.
	c.Submit(context.Background(), Task{ID: 8}, func(ctx context.Context, task Task) Result {
		return errResult(task, errors.New("broken"))
	}, out)
	res = drain(t, out, 1)[0]
	if res.Err == nil || !res.Failed {
		t.Fatalf("persistent failure must surface its error marked Failed, got %+v", res)
	}
	mu.Lock()
	defer mu.Unlock()
	last := events[len(events)-1]
	if last.Kind != FaultFailed || last.CandidateID != 8 || last.Attempt != 3 {
		t.Fatalf("terminal event = %+v", last)
	}
}

// TestPoolPanicIsolation: one tenant's panicking evaluation becomes an error
// result; the slot survives and keeps serving other tenants.
func TestPoolPanicIsolation(t *testing.T) {
	p := NewSharedPool(PoolConfig{Workers: 1})
	defer p.Close()
	bad, err := p.Register(ClientConfig{Tenant: "bad"})
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	good, err := p.Register(ClientConfig{Tenant: "good"})
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()

	outBad := make(chan Result, 1)
	outGood := make(chan Result, 1)
	bad.Submit(context.Background(), Task{ID: 1}, func(ctx context.Context, task Task) Result {
		panic("tenant defect")
	}, outBad)
	res := drain(t, outBad, 1)[0]
	if res.Err == nil || res.ID != 1 {
		t.Fatalf("panicking eval result = %+v", res)
	}
	good.Submit(context.Background(), Task{ID: 2}, func(ctx context.Context, task Task) Result {
		return Result{Record: trace.Record{ID: task.ID, Score: 1}}
	}, outGood)
	if res := drain(t, outGood, 1)[0]; res.Err != nil || res.Score != 1 {
		t.Fatalf("slot did not survive the panic: %+v", res)
	}
}

// TestPoolConcurrentSearchesInterleave: two one-worker searches on a
// two-slot pool genuinely overlap — the second search finishes its first
// candidate before the first search finishes its last.
func TestPoolConcurrentSearchesInterleave(t *testing.T) {
	p := NewSharedPool(PoolConfig{Workers: 2})
	defer p.Close()
	type stamp struct {
		who string
		at  time.Time
	}
	var mu sync.Mutex
	var stamps []stamp
	// Build both apps before launching: dataset generation must not skew the
	// two searches' start times, or the fast tiny evals finish one search
	// before the other begins.
	tenantApps := map[string]*apps.App{"t1": tinyApp(t, "nt3"), "t2": tinyApp(t, "nt3")}
	run := func(tenant string, seed int64, done chan<- error) {
		client, err := p.Register(ClientConfig{Tenant: tenant, Concurrency: 1})
		if err != nil {
			done <- err
			return
		}
		defer client.Close()
		_, err = Run(context.Background(), Config{
			App: tenantApps[tenant], Budget: 8, Seed: seed, Workers: 1, Executor: client,
			Progress: func(r Result) {
				mu.Lock()
				stamps = append(stamps, stamp{who: tenant, at: time.Now()})
				mu.Unlock()
			},
		})
		done <- err
	}
	d1, d2 := make(chan error, 1), make(chan error, 1)
	go run("t1", 3, d1)
	go run("t2", 4, d2)
	if err := <-d1; err != nil {
		t.Fatal(err)
	}
	if err := <-d2; err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	first := map[string]time.Time{}
	last := map[string]time.Time{}
	for _, s := range stamps {
		if _, ok := first[s.who]; !ok {
			first[s.who] = s.at
		}
		last[s.who] = s.at
	}
	if first["t1"].IsZero() || first["t2"].IsZero() {
		t.Fatalf("both searches must complete candidates: %+v", stamps)
	}
	if !(first["t1"].Before(last["t2"]) && first["t2"].Before(last["t1"])) {
		t.Fatalf("searches did not interleave: t1 [%v, %v], t2 [%v, %v]",
			first["t1"], last["t1"], first["t2"], last["t2"])
	}
}

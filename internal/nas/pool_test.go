package nas

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"swtnas/internal/apps"
	"swtnas/internal/checkpoint"
	"swtnas/internal/obs"
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

// TestPoolPanicIsolation: one tenant's panicking evaluation becomes an error
// result naming the candidate; the slot survives and keeps serving other
// tenants. An erroring evaluation ends the same way, its error delivered bare
// (not Failed): it aborts its search. The pool counts both as failed tasks,
// and the panic once more as a panic.
func TestPoolPanicIsolation(t *testing.T) {
	defer obs.SetEnabled(obs.SetEnabled(true))
	before := obs.Take()
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
	if res.Err == nil || res.ID != 1 || !strings.Contains(res.Err.Error(), "candidate 1") {
		t.Fatalf("panicking eval result = %+v", res)
	}
	good.Submit(context.Background(), Task{ID: 2}, func(ctx context.Context, task Task) Result {
		return Result{Record: trace.Record{ID: task.ID, Score: 1}}
	}, outGood)
	if res := drain(t, outGood, 1)[0]; res.Err != nil || res.Score != 1 {
		t.Fatalf("slot did not survive the panic: %+v", res)
	}
	bad.Submit(context.Background(), Task{ID: 3}, func(ctx context.Context, task Task) Result {
		return errResult(task, errors.New("broken"))
	}, outBad)
	if res := drain(t, outBad, 1)[0]; res.Err == nil || res.Failed {
		t.Fatalf("erroring eval must deliver its error bare, got %+v", res)
	}
	d := obs.Take().Delta(before)
	if failed, panics := d.Counters["nas.pool.tasks.failed"], d.Counters["nas.pool.tasks.panics"]; failed != 2 || panics != 1 {
		t.Fatalf("nas.pool.tasks.failed +%d, nas.pool.tasks.panics +%d; want +2 and +1", failed, panics)
	}
}

// TestPoolCloseCancelsQueuedTasks: closing a pool under a running search
// hands its queued tasks context.Canceled, so the search drains and returns
// the candidates completed so far beside that error instead of blocking. The
// pool has one slot and the search two tasks: the first evaluation closes the
// pool while the second waits in the queue, then finishes and is recorded.
func TestPoolCloseCancelsQueuedTasks(t *testing.T) {
	p := NewSharedPool(PoolConfig{Workers: 1})
	defer p.Close()
	client, err := p.Register(ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	app := tinyApp(t, "nt3")
	type outcome struct {
		records int
		err     error
	}
	done := make(chan outcome, 1)
	go func() {
		tr, err := Run(context.Background(), Config{
			App: app, Budget: 8, Seed: 3, Workers: 2, Executor: &closeInFirstEval{Executor: client, pool: p},
		})
		done <- outcome{len(tr.Records), err}
	}()
	select {
	case o := <-done:
		if !errors.Is(o.err, context.Canceled) || o.records != 1 {
			t.Fatalf("Run = %d records, %v; want 1 record and context.Canceled", o.records, o.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run still blocked 10 s after its pool closed")
	}
}

// closeInFirstEval closes pool from inside the first evaluation it runs.
type closeInFirstEval struct {
	Executor
	pool *SharedPool
	once sync.Once
}

func (c *closeInFirstEval) Submit(ctx context.Context, t Task, eval EvalFunc, out chan<- Result) {
	c.Executor.Submit(ctx, t, func(ctx context.Context, t Task) Result {
		c.once.Do(c.pool.Close)
		return eval(ctx, t)
	}, out)
}

// TestRunPanicIsError: on the default executor a panicking evaluation
// aborts its search with an error naming the candidate — the process and the
// test binary survive — and the private pool leaves no goroutine behind.
func TestRunPanicIsError(t *testing.T) {
	app := tinyApp(t, "nt3")
	_, err := Run(context.Background(), Config{App: app, Store: panicStore{}, Budget: 4, Seed: 1})
	if err == nil || !strings.Contains(err.Error(), "candidate 0") || !strings.Contains(err.Error(), "injected save panic") {
		t.Fatalf("err = %v, want the panic of candidate 0", err)
	}
	waitForGoroutines(t)
}

// panicStore panics on every save.
type panicStore struct{ checkpoint.Store }

func (panicStore) Save(string, *checkpoint.Model) (int64, error) { panic("injected save panic") }

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
		client, err := p.Register(ClientConfig{Tenant: tenant})
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

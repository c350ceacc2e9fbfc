package nas

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"swtnas/internal/checkpoint"
	"swtnas/internal/core"
	"swtnas/internal/evo"
	"swtnas/internal/obs"
	"swtnas/internal/resilience"
	"swtnas/internal/search"
	"swtnas/internal/trace"
)

var mResumedCandidates = obs.GetCounter("nas.candidates.resumed")

// replayJournal rebuilds the scheduler state a crashed run had reached by
// simulating its exact issue/complete interleaving: proposals are re-derived
// from the seeded RNG in the original issue order, and journal records —
// which are in completion order — drive strategy reports and follow-on
// proposals exactly as the live loop would have. Each journaled candidate's
// checkpoint is restored into the store bit for bit, so later weight
// transfers read identical providers.
//
// It returns the tasks that were issued but not journaled (in flight at the
// crash, or queued behind it) in issue order, plus the total proposal count
// consumed, leaving rng and strategy in the same state as an uninterrupted
// run at that point.
func replayJournal(cfg Config, strategy evo.Strategy, store checkpoint.ManifestStore, gc *candidateGC, rng *rand.Rand, workers int, tr *trace.Trace) (pending []Task, issued int, err error) {
	rec := cfg.Resume
	if len(rec.Records) > cfg.Budget {
		return nil, 0, fmt.Errorf("nas: journal holds %d candidates for a budget of %d", len(rec.Records), cfg.Budget)
	}
	open := map[int]Task{} // issued, not yet journaled
	var order []int        // issue order of open tasks
	issue := func() {
		p := strategy.Propose(rng)
		gc.taskIssued(p.ParentID)
		open[issued] = Task{
			ID:         issued,
			Arch:       p.Arch,
			ParentID:   p.ParentID,
			Seed:       TaskSeed(cfg.Seed, issued),
			ProxyScore: p.ProxyScore,
		}
		order = append(order, issued)
		issued++
	}
	upfront := workers
	if upfront > cfg.Budget {
		upfront = cfg.Budget
	}
	for i := 0; i < upfront; i++ {
		issue()
	}
	best := math.Inf(-1)
	for _, er := range rec.Records {
		r := er.Record
		t, ok := open[r.ID]
		if !ok {
			return nil, 0, fmt.Errorf("nas: journal candidate %d is not in the replayed schedule — journal and run options disagree", r.ID)
		}
		if !archsEqual(t.Arch, r.Arch) {
			return nil, 0, fmt.Errorf("nas: journal candidate %d has arch %v, replay proposed %v — journal and run options disagree", r.ID, r.Arch, t.Arch)
		}
		gc.taskDone(t.ParentID)
		var failure error
		if r.Failed {
			// A candidate the crashed run went on without stays lost: no
			// checkpoint, no report — only the proposal its completion
			// triggered, mirrored below.
			failure = errors.New(r.FailReason)
		} else {
			if err := restoreCheckpoint(store, er, gc != nil); err != nil {
				return nil, 0, err
			}
			gc.completed(r.ID, r.Score)
			strategy.Report(evo.Individual{ID: r.ID, Arch: r.Arch, Score: r.Score, Params: r.Params})
		}
		tr.Records = append(tr.Records, r)
		delete(open, r.ID)
		if issued < cfg.Budget {
			issue()
		}
		// Mirror the live loop's post-journal sweep so the replayed store
		// converges to the exact set of checkpoints the crashed run held.
		gc.sweep()
		// Stream the replayed prefix: a progress feed (and the serve
		// layer's SSE replay on top of it) sees the full history of a
		// resumed run, each journaled candidate marked Resumed, with the
		// original run's timings preserved.
		if !r.Failed && r.Score > best {
			best = r.Score
		}
		if cfg.Progress != nil {
			cfg.Progress(Result{
				ID:              r.ID,
				Arch:            search.Arch(r.Arch),
				ParentID:        r.ParentID,
				Score:           r.Score,
				Params:          r.Params,
				ShapeSeq:        r.ShapeSeq,
				Transfer:        core.Stats{Copied: r.TransferCopied},
				TrainTime:       r.TrainTime,
				CheckpointBytes: r.CheckpointBytes,
				EvalTime:        r.EvalTime,
				QueueWait:       r.QueueWait,
				CompletedAt:     r.CompletedAt,
				BestScore:       best,
				ProxyScore:      r.ProxyScore,
				Resumed:         true,
				Failed:          r.Failed,
				Err:             failure,
			})
		}
	}
	mResumedCandidates.Add(int64(len(rec.Records)))
	for _, id := range order {
		if t, ok := open[id]; ok {
			pending = append(pending, t)
		}
	}
	return pending, issued, nil
}

// restoreCheckpoint puts one journaled candidate's checkpoint back into the
// store: the manifest is re-registered against the durable blobs,
// hash-verified. A manifest whose blobs were garbage-collected before the
// crash is skipped when GC is enabled — the replay mirror deletes that
// candidate at the same point the original run did, so the missing checkpoint
// can never be needed.
func restoreCheckpoint(store checkpoint.ManifestStore, er resilience.EvalRecord, gcEnabled bool) error {
	id := er.Record.ID
	if err := store.AdoptManifest(CandidateID(id), er.Manifest); err != nil {
		if gcEnabled && errors.Is(err, checkpoint.ErrMissingBlob) {
			return nil
		}
		return fmt.Errorf("nas: restoring journaled checkpoint %d: %w", id, err)
	}
	return nil
}

func archsEqual(a search.Arch, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

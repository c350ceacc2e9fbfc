package nas

// FaultKind labels one fault-tolerance decision in a search's progress feed.
type FaultKind string

// The fault kinds a search can surface. Quarantine/readmit are worker-scoped
// (CandidateID is -1); requeue/failed are task-scoped.
const (
	// FaultRequeue: a candidate's evaluation failed or its worker died, and
	// the task went back to the schedule for another attempt.
	FaultRequeue FaultKind = "requeue"
	// FaultQuarantine: a worker stopped responding and was removed from the
	// schedule; its in-flight tasks requeue.
	FaultQuarantine FaultKind = "quarantine"
	// FaultReadmit: a quarantined worker showed signs of life and rejoined
	// the schedule.
	FaultReadmit FaultKind = "readmit"
	// FaultFailed: a candidate's evaluation failed for good — the coordinator
	// spent its retry budget (the search continues, the candidate a Failed
	// member of the population), or a pool evaluation errored or panicked
	// (the search aborts).
	FaultFailed FaultKind = "failed"
)

// FaultEvent is one fault-tolerance decision, emitted alongside candidate
// completions in the progress feed: failed evaluations on the evaluator
// pool, plus quarantine/requeue/readmit/failed decisions from the distributed
// coordinator (cluster.FaultConfig.OnEvent). The JSON field names are part of
// the serve wire schema.
type FaultEvent struct {
	// Kind is the decision taken.
	Kind FaultKind `json:"kind"`
	// Worker names the worker involved (cluster worker id or pool slot),
	// empty when not attributable.
	Worker string `json:"worker,omitempty"`
	// CandidateID is the affected task, -1 for worker-scoped events.
	CandidateID int `json:"candidate_id"`
	// Reason carries the triggering error or detector verdict.
	Reason string `json:"reason,omitempty"`
	// Attempt counts the executions the task has consumed so far.
	Attempt int `json:"attempt,omitempty"`
}

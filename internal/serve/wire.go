// Package serve is the NAS-as-a-service layer: a long-lived HTTP/JSON
// server that owns one shared evaluator pool and one journal directory, and
// runs many concurrent searches on them through the public swtnas handle
// API. Searches are submitted, observed (server-sent candidate events,
// partial top-K), cancelled and deleted over versioned REST endpoints;
// every search is journal-backed, so a killed server resumes each
// unfinished search bit for bit on restart.
package serve

import (
	"encoding/json"

	"swtnas"
)

// APIVersion prefixes every route ("/v1/searches"); breaking wire changes
// bump it.
const APIVersion = "v1"

// The lifecycle states a SearchStatus reports.
const (
	// StatePending: admitted but not yet running (transient).
	StatePending = "pending"
	// StateRunning: evaluations in progress (or resuming after restart).
	StateRunning = "running"
	// StateDone: ran to budget; the full Result is available.
	StateDone = "done"
	// StateCancelled: stopped by a cancel request; partial results remain.
	StateCancelled = "cancelled"
	// StateFailed: the search aborted with an error.
	StateFailed = "failed"
)

// SubmitRequest is the POST /v1/searches body. Field semantics match the
// like-named swtnas.SearchOptions fields; the server supplies the journal
// path, checkpoint store and shared pool itself.
type SubmitRequest struct {
	// Tenant groups the search under an admission quota and metrics label.
	Tenant string `json:"tenant,omitempty"`
	// Name is a free-form label echoed in statuses.
	Name string `json:"name,omitempty"`
	// App is the application to search (required).
	App string `json:"app"`
	// Scheme is the estimation scheme; empty means baseline.
	Scheme string `json:"scheme,omitempty"`
	// Budget is the number of candidates to evaluate (required).
	Budget int `json:"budget"`
	// Workers caps how many pool slots the search uses concurrently.
	Workers int `json:"workers,omitempty"`
	// Weight biases the pool's fair scheduler (default 1).
	Weight int `json:"weight,omitempty"`
	// Seed / DataSeed drive the search and dataset.
	Seed     int64 `json:"seed,omitempty"`
	DataSeed int64 `json:"data_seed,omitempty"`
	// TrainN / ValN override the dataset split sizes.
	TrainN int `json:"train_n,omitempty"`
	ValN   int `json:"val_n,omitempty"`
	// Population / Sample configure regularized evolution.
	Population int `json:"population,omitempty"`
	Sample     int `json:"sample,omitempty"`
	// RetainTopK bounds checkpoint-store growth.
	RetainTopK int `json:"retain_top_k,omitempty"`
	// ProxyFilter turns on the zero-cost proxy pre-filter as the search's
	// admission mode: only the best ProxyAdmit fraction of each proposal
	// batch reaches real training; rejections stream as "filtered" events.
	ProxyFilter bool `json:"proxy_filter,omitempty"`
	// ProxyAdmit is the admitted fraction in (0, 1]; 0 means 0.5.
	ProxyAdmit float64 `json:"proxy_admit,omitempty"`
	// MultiObjective selects Pareto (score × params) parent selection.
	MultiObjective bool `json:"multi_objective,omitempty"`
	// DType selects the training element type: "" or "f64" for float64,
	// "f32" for native float32 training with f32-tagged checkpoints.
	DType string `json:"dtype,omitempty"`
	// Space is an inline custom search-space spec (internal/search.Spec).
	Space json.RawMessage `json:"space,omitempty"`
}

// SearchStatus is the wire form of one search's current state.
type SearchStatus struct {
	// ID is the server-assigned search id ("s-000042").
	ID string `json:"id"`
	// Tenant and Name echo the submission.
	Tenant string `json:"tenant,omitempty"`
	Name   string `json:"name,omitempty"`
	// App and Scheme echo the submission (scheme normalized, e.g.
	// "baseline" for empty).
	App    string `json:"app"`
	Scheme string `json:"scheme"`
	// State is one of the State* constants.
	State string `json:"state"`
	// Budget is the submitted evaluation budget.
	Budget int `json:"budget"`
	// Completed counts finished candidates, journal-replayed ones included.
	Completed int `json:"completed"`
	// Resumed counts how many of Completed were replayed from the journal
	// after a restart rather than evaluated by this process.
	Resumed int `json:"resumed,omitempty"`
	// BestScore is the best score so far; absent until a candidate
	// completes.
	BestScore *float64 `json:"best_score,omitempty"`
	// Error carries the failure reason of a failed search.
	Error string `json:"error,omitempty"`
}

// SubmitResponse is the POST /v1/searches reply.
type SubmitResponse struct {
	// ID addresses the search in every other endpoint.
	ID string `json:"id"`
	// Status is the search's state right after admission.
	Status SearchStatus `json:"status"`
}

// ListResponse is the GET /v1/searches reply.
type ListResponse struct {
	// Searches holds every known search's status, submission order.
	Searches []SearchStatus `json:"searches"`
}

// CandidateEvent is one server-sent event on /v1/searches/{id}/events.
// Exactly one of Candidate and Status is set, matching Kind. The
// candidate payload reuses swtnas.Candidate's wire schema, so a streamed
// candidate marshals identically to the same candidate in a trace dump —
// including the omitempty elision of zero eval_time/queue_wait/resumed.
type CandidateEvent struct {
	// Kind is "candidate", "filtered" or "status".
	Kind string `json:"kind"`
	// SearchID is the search the event belongs to.
	SearchID string `json:"search_id"`
	// Seq numbers events per search from 0, replay included — a client that
	// reconnects can discard duplicates by Seq.
	Seq int `json:"seq"`
	// Candidate is one completed evaluation (Kind "candidate") or one
	// proxy-rejected proposal (Kind "filtered", Filtered set).
	Candidate *swtnas.Candidate `json:"candidate,omitempty"`
	// Status is the terminal status closing the stream (Kind "status").
	Status *SearchStatus `json:"status,omitempty"`
}

// The CandidateEvent kinds.
const (
	EventKindCandidate = "candidate"
	EventKindStatus    = "status"
	// EventKindFiltered streams one proposal the proxy pre-filter rejected
	// before training; the Candidate payload has Filtered set and ID -1.
	EventKindFiltered = "filtered"
)

// TopKResponse is the GET /v1/searches/{id}/topk reply.
type TopKResponse struct {
	// ID echoes the search id.
	ID string `json:"id"`
	// Candidates are the best-first top K completed so far.
	Candidates []swtnas.Candidate `json:"candidates"`
}

// ErrorResponse is the JSON body of every non-2xx reply.
type ErrorResponse struct {
	// Error is the human-readable message.
	Error string `json:"error"`
	// Field names the offending SubmitRequest field for 400s when known.
	Field string `json:"field,omitempty"`
}

// Package serve is the multi-tenant sweep service behind cmd/tpserved:
// a long-running HTTP/JSON front-end over the experiment engine and the
// content-addressed result store. Clients submit the same declarative
// specs the CLIs use (sweep, proof, conformance matrices, optionally
// sharded), the service expands them into cells, schedules the cells
// across one bounded worker pool shared by every job (the work-stealing
// granule is the engine's finalisation group), and serves each job's
// report from the shared store once its cells are in.
//
// The service's concurrency contract is the dedup invariant: identical
// cells — same content-addressed store key — never execute twice, no
// matter how many concurrent clients submit overlapping matrices.
// Cells already in the store are hits; cells another job is executing
// right now are joined through an in-flight singleflight keyed on the
// store key; only the first submitter of a missing key executes it.
// Globally, cell executions never exceed the number of distinct keys
// submitted (internal/serve/loadtest proves the math under load).
//
// The report contract is byte-identity: a served report is assembled
// from the scheduler's results by the engine runners' own assembly
// code, so it is byte-for-byte the report a cold single-process CLI run
// of the same spec would emit — the engine's warm==cold invariant,
// lifted to a multi-tenant service.
package serve

import (
	"timeprot/internal/experiment"
)

// Job kinds: which matrix a SubmitRequest expands.
const (
	KindSweep   = "sweep"
	KindProof   = "proof"
	KindConform = "conform"
)

// Job states, in lifecycle order. A job is terminal in StateDone,
// StateFailed, or StateCanceled.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// SubmitRequest is the body of POST /v1/jobs: one spec of the kind's
// shape — exactly the struct the matching CLI builds from its flags —
// plus an optional shard selector.
type SubmitRequest struct {
	// Kind selects the matrix: "sweep", "proof", or "conform".
	Kind string `json:"kind"`
	// Shard optionally restricts the job to one deterministic shard of
	// its matrix, in the CLIs' "i/n" syntax; the report is then partial
	// (with full-matrix cell indices, so shard reports merge).
	Shard string `json:"shard,omitempty"`
	// Sweep is the sweep spec when Kind is "sweep".
	Sweep *experiment.Spec `json:"sweep,omitempty"`
	// Proof is the proof-matrix spec when Kind is "proof".
	Proof *experiment.ProofSpec `json:"proof,omitempty"`
	// Conform is the conformance spec when Kind is "conform".
	Conform *experiment.ConformanceSpec `json:"conform,omitempty"`
}

// SubmitResponse is the body answering POST /v1/jobs.
type SubmitResponse struct {
	// ID names the job in every other endpoint.
	ID string `json:"id"`
	// Kind echoes the submitted kind.
	Kind string `json:"kind"`
	// State is the job's state at submission (always "queued").
	State string `json:"state"`
	// Cells is the job's matrix size (after sharding), including the
	// proof cells of a sweep spec with Proofs set.
	Cells int `json:"cells"`
}

// JobStatus is the body of GET /v1/jobs/{id} (and the elements of
// GET /v1/jobs): the job's state and its dedup accounting.
type JobStatus struct {
	ID    string `json:"id"`
	Kind  string `json:"kind"`
	State string `json:"state"`
	// Shard echoes the submitted shard selector, when any.
	Shard string `json:"shard,omitempty"`
	// Total is the job's matrix size; Done counts scheduled cells that
	// reached a result (executed, served, or joined).
	Total int `json:"total"`
	Done  int `json:"done"`
	// Executed, StoreHits, and Joined break Done down: cells this job
	// executed itself, cells served straight from the shared store, and
	// cells joined in flight with another job (the singleflight dedup).
	Executed  int `json:"executed"`
	StoreHits int `json:"storeHits"`
	Joined    int `json:"joined"`
	// CellErrors counts cells whose execution failed; the assembled
	// report carries the per-cell errors.
	CellErrors int `json:"cellErrors,omitempty"`
	// Error is the job-level failure when State is "failed".
	Error string `json:"error,omitempty"`
	// Created, Started, and Finished are RFC 3339 UTC timestamps;
	// Started/Finished are empty until the job reaches that state.
	Created  string `json:"created"`
	Started  string `json:"started,omitempty"`
	Finished string `json:"finished,omitempty"`
}

// Event is one line of the GET /v1/jobs/{id}/stream NDJSON stream.
type Event struct {
	// Type is "state" (job state change), "cell" (one cell reached a
	// result), or "error" (a cell failed).
	Type string `json:"type"`
	// State carries the new state of a "state" event.
	State string `json:"state,omitempty"`
	// Done and Total carry the job's progress on "cell" events.
	Done  int `json:"done,omitempty"`
	Total int `json:"total,omitempty"`
	// Cell labels the finished cell of a "cell" event.
	Cell string `json:"cell,omitempty"`
	// Source says how the cell's result materialised: "executed",
	// "store", or "joined".
	Source string `json:"source,omitempty"`
	// Error carries the message of an "error" event (or a failed
	// "state" event).
	Error string `json:"error,omitempty"`
}

// Cell-result sources for Event.Source.
const (
	SourceExecuted = "executed"
	SourceStore    = "store"
	SourceJoined   = "joined"
)

// Stats is the body of GET /v1/stats: the server-wide dedup accounting
// the load-test harness asserts its invariant over.
type Stats struct {
	// Jobs counts accepted submissions.
	Jobs int `json:"jobs"`
	// CellsSubmitted counts scheduled cells over all jobs, duplicates
	// included; DistinctKeys is the size of the union of their store
	// key sets. The dedup invariant: Executed <= DistinctKeys, always.
	CellsSubmitted int `json:"cellsSubmitted"`
	DistinctKeys   int `json:"distinctKeys"`
	// Executed, StoreHits, and Joined are the server-wide counterparts
	// of the per-job JobStatus fields.
	Executed  int `json:"executed"`
	StoreHits int `json:"storeHits"`
	Joined    int `json:"joined"`
	// FailedPuts counts store write-backs that failed (the report stays
	// complete, but later jobs may re-execute the affected cells; the
	// invariant then holds per surviving write, not per submission).
	FailedPuts int `json:"failedPuts,omitempty"`
	// Fingerprints are the engine fingerprints the server keys cells
	// under — a client talking to a server with a different fingerprint
	// set is measuring a different model.
	CellFingerprint    string `json:"cellFingerprint"`
	ProofFingerprint   string `json:"proofFingerprint"`
	ConformFingerprint string `json:"conformFingerprint"`
}

// ErrorReply is the body of every non-2xx response.
type ErrorReply struct {
	Error string `json:"error"`
}

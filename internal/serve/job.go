// The per-job state machine and its on-disk manifest.
//
// Every job lives in its own directory, <data>/jobs/<id>/, holding
// job.json (the manifest), ckpt/ (the job's checkpoint epochs) and, once
// rank 0 finishes, result.json. The manifest is rewritten atomically by
// ckpt.WriteFileAtomic (temp + fsync + rename, as every shard is written)
// on every state transition, so a daemon killed at any instant leaves a
// manifest that is either the old state or the new one — never torn — and
// a restarted daemon re-adopts exactly the jobs that were in flight.

package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"picpar/internal/ckpt"
	"picpar/internal/jobspec"
)

// State is one node of the job lifecycle:
//
//	queued → assembling → running → done
//	                         ↘ checkpointing   (graceful drain; resumable)
//	                         ↘ failed          (typed Reason)
//	queued/running → cancelled
//
// queued, assembling, running and checkpointing are live states a
// restarted daemon re-adopts; done, failed and cancelled are terminal.
type State string

const (
	StateQueued        State = "queued"
	StateAssembling    State = "assembling"
	StateRunning       State = "running"
	StateCheckpointing State = "checkpointing"
	StateDone          State = "done"
	StateFailed        State = "failed"
	StateCancelled     State = "cancelled"
)

// Terminal reports whether s is a final state.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// JobResult is the distilled, JSON-able outcome of a finished run (the
// full pic.Result holds function-valued config fields and cannot travel).
type JobResult struct {
	TotalTime           float64 `json:"total_time"`
	Fingerprint         string  `json:"fingerprint"` // %016x physics hash
	InitTime            float64 `json:"init_time"`
	ComputeMax          float64 `json:"compute_max"`
	Efficiency          float64 `json:"efficiency"`
	NumRedistributions  int     `json:"num_redistributions"`
	FinalParticleCount  int     `json:"final_particle_count"`
	CompletedIterations int     `json:"completed_iterations"`
	Stopped             bool    `json:"stopped,omitempty"` // drained, not finished
}

// Manifest is the persisted face of one job.
type Manifest struct {
	ID    string       `json:"id"`
	Spec  jobspec.Spec `json:"spec"`
	State State        `json:"state"`
	// Reason is the typed cause of a failed or cancelled state (one of the
	// Reason* constants), with Detail carrying the human diagnostic.
	Reason string `json:"reason,omitempty"`
	Detail string `json:"detail,omitempty"`

	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started,omitempty"`
	Finished  time.Time `json:"finished,omitempty"`

	// Attempts counts launched run attempts (adoption after a daemon
	// restart resumes the count — the retry budget spans daemon lifetimes).
	Attempts int `json:"attempts,omitempty"`
	// PGID is the process group of the current attempt's worker processes,
	// 0 when none are running. A restarted daemon kills this group before
	// relaunching, so orphans from a kill -9 of the daemon never race the
	// replacement world for the checkpoint directory.
	PGID int `json:"pgid,omitempty"`

	Result *JobResult `json:"result,omitempty"`
}

// IterEvent is the wire form of one iteration's diagnostics on the SSE
// stream (a distillation of pic.IterationRecord) and the JSONL line a
// rank-0 worker process emits on stdout.
type IterEvent struct {
	Iter           int     `json:"iter"`
	Time           float64 `json:"time"`
	Compute        float64 `json:"compute"`
	Redistributed  bool    `json:"redistributed,omitempty"`
	RedistStrategy string  `json:"redist_strategy,omitempty"`
	BusyImbalance  float64 `json:"busy_imbalance"`
	FieldEnergy    float64 `json:"field_energy,omitempty"`
	KineticEnergy  float64 `json:"kinetic_energy,omitempty"`
}

// JobDir returns the directory of one job under the data directory.
func JobDir(data, id string) string {
	return filepath.Join(data, "jobs", id)
}

func manifestPath(jobDir string) string { return filepath.Join(jobDir, "job.json") }

// CheckpointDir returns the job's checkpoint directory.
func CheckpointDir(jobDir string) string { return filepath.Join(jobDir, "ckpt") }

// resultPath returns the job's result file (written by rank 0).
func resultPath(jobDir string) string { return filepath.Join(jobDir, "result.json") }

// WriteManifest atomically persists m into its job directory.
func WriteManifest(jobDir string, m *Manifest) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("serve: encode manifest: %w", err)
	}
	return ckpt.WriteFileAtomic(manifestPath(jobDir), append(b, '\n'))
}

// ReadManifest loads a job manifest.
func ReadManifest(jobDir string) (*Manifest, error) {
	b, err := os.ReadFile(manifestPath(jobDir))
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("serve: decode %s: %w", manifestPath(jobDir), err)
	}
	return &m, nil
}

// WriteResult atomically persists a finished run's distilled result (rank
// 0 of a worker world calls this before exiting).
func WriteResult(jobDir string, r *JobResult) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("serve: encode result: %w", err)
	}
	return ckpt.WriteFileAtomic(resultPath(jobDir), append(b, '\n'))
}

// ReadResult loads a job's result file.
func ReadResult(jobDir string) (*JobResult, error) {
	b, err := os.ReadFile(resultPath(jobDir))
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	var r JobResult
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("serve: decode %s: %w", resultPath(jobDir), err)
	}
	return &r, nil
}

// RemoveResult clears a stale result file before a fresh attempt, so a
// finished-looking result from a previous attempt can never be mistaken
// for the new attempt's outcome.
func RemoveResult(jobDir string) {
	_ = os.Remove(resultPath(jobDir))
}

package acasxval

import (
	"context"
	"io"

	"acasxval/internal/campaign"
	"acasxval/internal/montecarlo"
	"acasxval/internal/search"
	"acasxval/internal/serve"
)

// Context-taking variants of the long-running entry points. The plain
// signatures (RunCampaign, RunSearch, EstimateRisk, ...) are exactly these
// under context.Background(); pass a real context to stop work promptly on
// cancellation, deadline, or signal (signal.NotifyContext) instead of
// killing the process mid-write.

// RunCampaignContext is RunCampaign under a cancellation context. A
// cancelled ctx stops the campaign at the next cell boundary: the JSONL
// stream holds exactly the completed deterministic cell prefix, and the
// returned partial result (non-nil alongside the error) summarizes those
// cells.
func RunCampaignContext(ctx context.Context, spec CampaignSpec, systems CampaignSystems, jsonl io.Writer) (*CampaignResult, error) {
	return campaign.RunContext(ctx, spec, systems, jsonl)
}

// RunSearchContext is RunSearch under a cancellation context. A cancelled
// ctx stops the islands at the next evaluation boundary and returns the
// progress so far (non-nil alongside the error); with
// opts.CheckpointPath set the interrupted search resumes bit-identically
// (opts.Resume).
func RunSearchContext(ctx context.Context, spec SearchSpec, factory SystemFactory, opts SearchOptions) (*IslandSearchResult, error) {
	return search.RunContext(ctx, spec, factory, opts)
}

// EstimateRiskContext is EstimateRisk under a cancellation context: a
// cancelled ctx stops the episode loops (and, for splitting, the stage
// ladder) and returns ctx.Err() with no estimate.
func EstimateRiskContext(ctx context.Context, model MultiEncounterModel, factory SystemFactory, cfg MonteCarloConfig, spec RareEventSpec) (*RiskEstimate, error) {
	return montecarlo.EvaluateContext(ctx, model, factory, cfg, spec, nil)
}

// The validation service: a long-running, crash-safe server around the
// campaign, search and rare-event engines (see internal/serve and the
// caserve command). Campaign cells shard across a supervised worker pool
// with per-cell deadlines, bounded retries and quarantine; every
// completed cell journals durably before it becomes observable, so
// restarting a killed server on the same state directory resumes
// mid-campaign with byte-identical artifacts.
type (
	// ValidationServer accepts campaign, adversarial-search and
	// rare-event jobs — over HTTP (it is an http.Handler) or in-process
	// (Submit/WaitJob) — and survives being killed at any instant.
	ValidationServer = serve.Server
	// ValidationServerConfig configures a ValidationServer: the state
	// directory, the system backend menu, the worker-pool width and the
	// shard retry policy.
	ValidationServerConfig = serve.Config
	// ValidationJobStatus is one job's observable state: queued, running,
	// done, degraded (some cells quarantined), failed or cancelled, plus
	// progress counters and cache-hit counts.
	ValidationJobStatus = serve.JobStatus
	// ValidationRetryPolicy bounds per-cell attempts, deadlines and
	// retry backoff for a ValidationServer's shard supervisor.
	ValidationRetryPolicy = serve.RetryPolicy
)

// NewValidationServer opens (or resumes) a validation server over
// cfg.StateDir: the durable job journal replays, completed cells become
// the completed-cell cache, and every job a previous process left
// unfinished re-enters the queue — restarting the server IS the recovery
// path. Close drains it gracefully.
func NewValidationServer(cfg ValidationServerConfig) (*ValidationServer, error) {
	return serve.NewServer(cfg)
}

// CampaignSpecHash returns the canonical content hash of a campaign
// spec: two specs that expand to the same cells hash identically no
// matter how they were spelled (map order, defaulted fields, parallelism
// knobs). The validation service keys job identity on it.
func CampaignSpecHash(spec CampaignSpec) (string, error) {
	return serve.SpecHash(spec)
}

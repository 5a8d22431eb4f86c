/**
 * @file
 * Sweep-cell worker subprocesses and the sharded job runner.
 *
 * The daemon's fault boundary is the process: a cell that segfaults,
 * aborts, or hard-exits (the worker.crash injection site) must kill
 * a disposable worker, never the service.  So a job's (frame,
 * policy) cells are sharded across worker subprocesses by frame
 * (each frame's trace renders once, in the one worker that owns it)
 * and executed over a line protocol on one socketpair per worker,
 * which the worker sees as its stdin and stdout:
 *
 *   parent -> worker   line 1:  SweepJobSpec::toJson()
 *   parent -> worker   {"trace":{"id":"...","job":N,"epoch_us":E,
 *                       "out":"<path>.jsonl"}}   (optional, once,
 *                      right after the spec: the daemon's per-job
 *                      trace context — the worker records one span
 *                      per cell and writes them to "out" at EOF,
 *                      timestamps shifted onto the daemon's trace
 *                      clock via the epoch difference; no reply)
 *   parent -> worker   {"cell":{"frame":F,"policy":P,"attempt":A}}
 *                      (F, P index the spec's frames/policies)
 *   worker -> parent   one line per cell, in request order:
 *                        success: checkpointCellLine() bytes — the
 *                          same sealed line a checkpoint journal
 *                          holds, so a cell survives the socket
 *                          the way it survives a crash
 *                        failure: {"failed":1,...} sealed the same
 *                          way, carrying the error text
 *
 * Workers start with posix_spawn: the file actions dup2 the child's
 * end of the socketpair onto fds 0 and 1 and then closefrom(3), so a
 * worker holds fds 0-2 only, whatever else the daemon (or a sibling
 * shard thread spawning at the same moment) has open.  Shutdown
 * closes the parent's end — EOF to the worker — and reaps, killing
 * a worker still running kWorkerExitGraceMs later, so no wait on a
 * worker is unbounded.  All channel IO goes through the deadline
 * helpers of service/protocol.hh, bounded by the cell timeout.
 *
 * Requests are strictly request/response, so when a worker dies the
 * unanswered request names the killer cell precisely.  One round
 * trip (spawn if needed, request, reply) is one attempt under the
 * one retry rule, withRetries() of analysis/cell_exec: a crashed
 * worker, a worker hung past the cell timeout, a garbled reply, a
 * failed spawn and a cell error the worker reports all spend the
 * job's retry budget (spec.retries, spec.backoffMs) exactly as a
 * throwing cell does in-process; the worker is respawned for the
 * next attempt and a cell that exhausts the budget is quarantined.
 * A clean job is therefore byte-identical to
 * SweepConfig::fromSpec(spec).run() — fewer moving parts than it
 * sounds: both paths run the same cell body and fault sites
 * (analysis/cell_exec) on the same trace.
 *
 * The worker executable is GLLC_WORKER_EXE when set (tests point it
 * at the gllcd binary) and /proc/self/exe otherwise; either way it
 * is entered through runSweepWorker() via the --worker flag.
 */

#ifndef GLLC_SERVICE_WORKER_HH
#define GLLC_SERVICE_WORKER_HH

#include <cstdint>
#include <string>

#include "analysis/job_spec.hh"
#include "analysis/sweep.hh"
#include "common/result.hh"
#include "service/event_log.hh"

namespace gllc
{

/** Exit code of a worker killed by the worker.crash fault site. */
constexpr int kWorkerCrashExitCode = 70;

/** Telemetry of one sharded run (service status, tests). */
struct ShardedRunStats
{
    unsigned workersSpawned = 0;
    unsigned workerCrashes = 0;
    /** Cells whose worker hung past cellTimeoutMs and was killed. */
    unsigned cellTimeouts = 0;
};

/**
 * Per-job observability context the daemon threads through a
 * sharded run.  traceDir enables cross-process tracing: every
 * spawned worker is handed a trace line naming a private
 * worker-<pid>.jsonl file under traceDir plus the daemon's trace
 * epoch, and the daemon stitches the files it finds there into one
 * merged per-job timeline after the run.  events (when non-null and
 * active) receives cell_retry / cell_quarantined structured events
 * as they happen.  A default-constructed context disables both.
 */
struct ShardTelemetry
{
    std::uint64_t jobId = 0;

    /** Daemon-minted per-job trace id (hex), tags every span. */
    std::string traceId;

    /** Worker trace files land here; "" = no cross-process traces. */
    std::string traceDir;

    /** The daemon collector's TraceCollector::epochSinceBootUs(). */
    double daemonEpochUs = 0.0;

    /** Structured event sink (not owned); may be null. */
    ServiceEventLog *events = nullptr;
};

/**
 * Execute @p spec with its cells sharded over @p workers worker
 * subprocesses (clamped to the frame count, minimum 1).  Execution
 * knobs inside the spec keep their engine meaning where they apply
 * (retries, backoffMs); threads/frameWindow are superseded by the
 * process-level sharding and checkpointing is the caller's concern,
 * not the workers'.  cellTimeoutMs is enforced HARD here, unlike
 * the in-process engine's warn-only watchdog: a worker that hangs
 * past the budget is SIGKILLed and the cell retried on a fresh
 * worker, then quarantined — safe because the fault boundary is a
 * disposable process with no shared state to corrupt (0 = no
 * timeout).  InvalidArgument when the spec does not
 * validate(); Io when workers cannot be spawned at all.  Individual
 * cell failures and crashes never fail the run — they quarantine,
 * exactly like the in-process engine.
 */
[[nodiscard]] Result<SweepResult>
runShardedSweep(const SweepJobSpec &spec, unsigned workers,
                ShardedRunStats *stats = nullptr,
                const ShardTelemetry *telemetry = nullptr);

/**
 * Worker-subprocess entry: serve cell requests on stdin/stdout (one
 * socket, as spawned above) per the protocol above until EOF.
 * Returns the process exit code (0 on an orderly shutdown,
 * EX_DATAERR-style nonzero when the parent speaks garbage).
 */
int runSweepWorker();

} // namespace gllc

#endif // GLLC_SERVICE_WORKER_HH

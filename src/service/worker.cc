#include "service/worker.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

#include "analysis/cell_exec.hh"
#include "analysis/checkpoint.hh"
#include "analysis/offline_sim.hh"
#include "analysis/policy_table.hh"
#include "common/env.hh"
#include "common/fault.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/thread_annotations.hh"
#include "common/trace_event.hh"
#include "service/protocol.hh"
#include "workload/app_profile.hh"
#include "workload/trace_cache.hh"

namespace gllc
{

namespace
{

/** The failed-cell line of the worker protocol (sealed). */
std::string
failedCellLine(const CellKey &key, unsigned attempts,
               const std::string &error)
{
    std::string line = "{\"failed\":1,\"app\":\"";
    line += jsonEscape(key.app);
    line += "\",\"frame\":";
    line += std::to_string(key.frameIndex);
    line += ",\"policy\":\"";
    line += jsonEscape(key.policy);
    line += "\",\"attempts\":";
    line += std::to_string(attempts);
    line += ",\"error\":\"";
    line += jsonEscape(error);
    line += '"';
    return sealJournalLine(std::move(line));
}

/** Parsed failure report. */
struct FailedCell
{
    CellKey key;
    unsigned attempts = 0;
    std::string error;
};

/** Parse a sealed failed-cell line; false on any deviation. */
bool
parseFailedCellLine(const std::string &line, FailedCell &out)
{
    JsonValue doc;
    if (line.compare(0, 12, "{\"failed\":1,") != 0
        || !unsealJournalJson(line, doc))
        return false;
    const JsonValue *app = doc.find("app");
    const JsonValue *frame = doc.find("frame");
    const JsonValue *policy = doc.find("policy");
    const JsonValue *attempts = doc.find("attempts");
    const JsonValue *error = doc.find("error");
    if (app == nullptr || frame == nullptr || policy == nullptr
        || attempts == nullptr || error == nullptr)
        return false;
    Result<std::string> app_name = app->asString("app");
    Result<std::uint64_t> frame_index = frame->asU64("frame");
    Result<std::string> policy_name = policy->asString("policy");
    Result<std::uint64_t> attempt_count =
        attempts->asU64("attempts");
    Result<std::string> error_text = error->asString("error");
    if (!app_name.ok() || !frame_index.ok() || !policy_name.ok()
        || !attempt_count.ok() || !error_text.ok())
        return false;
    out.key = {app_name.take(),
               static_cast<std::uint32_t>(frame_index.value()),
               policy_name.take()};
    out.attempts = static_cast<unsigned>(attempt_count.value());
    out.error = error_text.take();
    return true;
}

/** One worker-bound cell request line. */
std::string
cellRequestLine(std::size_t frame, std::size_t policy,
                unsigned attempt)
{
    std::string line = "{\"cell\":{\"frame\":";
    line += std::to_string(frame);
    line += ",\"policy\":";
    line += std::to_string(policy);
    line += ",\"attempt\":";
    line += std::to_string(attempt);
    line += "}}\n";
    return line;
}

/** The trace-context line handed to a freshly spawned worker. */
std::string
traceRequestLine(const ShardTelemetry &telemetry,
                 const std::string &out_path)
{
    char epoch[64];
    std::snprintf(epoch, sizeof(epoch), "%.3f",
                  telemetry.daemonEpochUs);
    std::string line = "{\"trace\":{\"id\":\"";
    line += jsonEscape(telemetry.traceId);
    line += "\",\"job\":";
    line += std::to_string(telemetry.jobId);
    line += ",\"epoch_us\":";
    line += epoch;
    line += ",\"out\":\"";
    line += jsonEscape(out_path);
    line += "\"}}\n";
    return line;
}

/** Emit a per-cell structured event when an event sink is wired. */
void
emitCellEvent(const ShardTelemetry *telemetry, const char *type,
              const CellKey &key, unsigned attempts,
              const std::string &detail)
{
    if (telemetry == nullptr || telemetry->events == nullptr
        || !telemetry->events->active())
        return;
    ServiceEvent event(type);
    event.num("job", static_cast<std::int64_t>(telemetry->jobId))
        .str("app", key.app)
        .num("frame", key.frameIndex)
        .str("policy", key.policy)
        .num("attempts", attempts);
    if (!detail.empty())
        event.str("error", detail);
    telemetry->events->emit(event);
}

/** How a receive() attempt ended. */
enum class RecvStatus
{
    Line,    ///< one complete response line delivered
    Eof,     ///< worker closed its end (died or exited)
    Timeout  ///< no complete line within the cell budget
};

/** Describe how a reaped worker died. */
std::string
exitDescription(int status)
{
    if (WIFEXITED(status))
        return "exit status "
            + std::to_string(WEXITSTATUS(status));
    if (WIFSIGNALED(status))
        return "signal " + std::to_string(WTERMSIG(status));
    return "unknown status " + std::to_string(status);
}

/**
 * How long a worker may take to exit once its socket closes before
 * it is SIGKILLed.  An orderly worker exits within milliseconds of
 * EOF (flushing its trace file on the way out); the grace only ever
 * runs out on a worker that outlives its channel.
 */
constexpr int kWorkerExitGraceMs = 2000;

/** A live worker subprocess (parent side). */
class WorkerProcess
{
  public:
    /**
     * @param timeout_ms  the cell budget: bounds each sendLine() and
     *                    each receive() (0 = unbounded).
     */
    explicit WorkerProcess(unsigned timeout_ms)
        : timeoutMs_(static_cast<int>(
              std::min<unsigned>(timeout_ms, INT_MAX)))
    {
    }
    ~WorkerProcess() { shutdown(); }

    WorkerProcess(const WorkerProcess &) = delete;
    WorkerProcess &operator=(const WorkerProcess &) = delete;

    bool alive() const { return pid_ > 0; }

    /** The subprocess pid (names its per-spawn trace file). */
    pid_t pid() const { return pid_; }

    /**
     * Start @p exe as a worker on one socketpair and send the spec
     * line.  The child gets the socket as stdin and stdout and
     * nothing else beyond stderr: closefrom(3) runs after the dup2s,
     * so no fd the daemon (or a sibling shard) holds survives into
     * it.  Returns "" or the reason the worker could not start.
     */
    [[nodiscard]] std::string
    spawn(const std::string &exe, const std::string &spec_line)
    {
        int ends[2];
        if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, ends)
            != 0)
            return std::string("cannot create worker socket: ")
                + std::strerror(errno);
        posix_spawn_file_actions_t actions;
        posix_spawn_file_actions_init(&actions);
        posix_spawn_file_actions_adddup2(&actions, ends[1], 0);
        posix_spawn_file_actions_adddup2(&actions, ends[1], 1);
        posix_spawn_file_actions_addclosefrom_np(&actions, 3);
        char arg0[] = "gllcd-worker";
        char arg1[] = "--worker";
        char *argv[] = {arg0, arg1, nullptr};
        pid_t pid = -1;
        const int rc = ::posix_spawn(&pid, exe.c_str(), &actions,
                                     nullptr, argv, environ);
        posix_spawn_file_actions_destroy(&actions);
        ::close(ends[1]);
        if (rc != 0) {
            ::close(ends[0]);
            return "cannot spawn worker " + exe + ": "
                + std::strerror(rc);
        }
        pid_ = pid;
        fd_ = ends[0];
        buffer_.clear();
        if (!sendLine(spec_line)) {
            const std::string how = shutdown();
            return "worker refused its spec (" + how + ")";
        }
        return {};
    }

    [[nodiscard]] bool
    sendLine(const std::string &line)
    {
        return fd_ >= 0
            && writeAllDeadline(fd_, line.data(), line.size(),
                                timeoutMs_)
                   .ok();
    }

    /**
     * Read one response line within the cell budget.  Timeout means
     * the worker is alive but hung past it — the caller must kill()
     * it, since a spinning worker ignores its socket closing.
     */
    RecvStatus
    receive(std::string &line)
    {
        const Deadline deadline(timeoutMs_);
        for (;;) {
            const std::size_t nl = buffer_.find('\n');
            if (nl != std::string::npos) {
                line.assign(buffer_, 0, nl + 1);
                buffer_.erase(0, nl + 1);
                return RecvStatus::Line;
            }
            const int left_ms = deadline.remainingMs();
            if (left_ms == 0)
                return RecvStatus::Timeout;
            char chunk[4096];
            Result<std::size_t> got = readSomeDeadline(
                fd_, chunk, sizeof(chunk), std::max(left_ms, 0));
            if (!got.ok())
                return got.error().code == ErrorCode::Timeout
                    ? RecvStatus::Timeout
                    : RecvStatus::Eof;
            if (got.value() == 0)
                return RecvStatus::Eof;
            buffer_.append(chunk, got.value());
        }
    }

    /** SIGKILL a hung worker so shutdown()'s reap is immediate. */
    void
    kill()
    {
        if (pid_ > 0)
            ::kill(pid_, SIGKILL);
    }

    /**
     * Close the socket and reap, SIGKILLing a worker still running
     * kWorkerExitGraceMs later; returns the exit description.
     */
    std::string
    shutdown()
    {
        if (fd_ >= 0) {
            ::close(fd_);
            fd_ = -1;
        }
        buffer_.clear();
        if (pid_ <= 0)
            return "never ran";
        const auto give_up = std::chrono::steady_clock::now()
            + std::chrono::milliseconds(kWorkerExitGraceMs);
        int status = 0;
        pid_t reaped;
        // Short naps first: an orderly worker is gone within a few
        // ms of EOF, and a served job waits on this reap.
        std::chrono::microseconds nap{50};
        while ((reaped = ::waitpid(pid_, &status, WNOHANG)) == 0
               || (reaped < 0 && errno == EINTR)) {
            if (std::chrono::steady_clock::now() >= give_up) {
                warn("gllcd worker %d still running %d ms after its "
                     "socket closed; killing it",
                     static_cast<int>(pid_), kWorkerExitGraceMs);
                kill();
                while (::waitpid(pid_, &status, 0) < 0
                       && errno == EINTR) {
                }
                break;
            }
            std::this_thread::sleep_for(nap);
            nap = std::min(2 * nap, std::chrono::microseconds(5000));
        }
        pid_ = -1;
        return exitDescription(status);
    }

  private:
    int timeoutMs_;
    pid_t pid_ = -1;
    int fd_ = -1;
    std::string buffer_;
};

/** The worker binary to exec (tests point this at gllcd). */
std::string
workerExecutable()
{
    const std::string configured = envString("GLLC_WORKER_EXE", "");
    return configured.empty() ? "/proc/self/exe" : configured;
}

/** Run-wide stats the shard threads update concurrently. */
struct SharedStats
{
    Mutex mutex;
    ShardedRunStats stats GLLC_GUARDED_BY(mutex);
};

/** Outcome slot of one cell of a sharded run. */
struct CellOutcome
{
    bool done = false;
    bool ok = false;
    SweepCell cell;
    std::string error;
    unsigned attempts = 0;
};

/**
 * Drive one worker's shard of cells to completion (one thread per
 * worker runs this).  Each cell is one round trip under the one
 * retry rule (withRetries): a crash, a hang, a garbled reply or a
 * failed spawn ends the attempt, the worker is respawned on the
 * next one, and a cell that exhausts the budget is quarantined
 * while the shard moves on.
 */
void
runShard(const SweepJobSpec &spec, const std::string &spec_line,
         const std::vector<std::pair<std::size_t, std::size_t>>
             &cells,
         std::vector<CellOutcome> &outcomes, std::size_t num_policies,
         SharedStats &shared, const ShardTelemetry *telemetry)
{
    const std::string exe = workerExecutable();
    WorkerProcess proc(spec.cellTimeoutMs);

    // Hand every fresh worker the job's trace context; each spawn
    // writes its own worker-<pid>.jsonl, so a crashed worker leaves
    // at most a file the daemon's stitcher will ignore as invalid.
    const bool tracing = telemetry != nullptr
        && !telemetry->traceDir.empty();
    const auto send_trace_context = [&] {
        if (!tracing)
            return;
        const std::string out_path = telemetry->traceDir + "/worker-"
            + std::to_string(proc.pid()) + ".jsonl";
        // A failed send means the worker died already; the next
        // cell request surfaces that as a crash.
        (void)proc.sendLine(traceRequestLine(*telemetry, out_path));
    };

    const auto note_spawn = [&] {
        MutexLock lock(shared.mutex);
        ++shared.stats.workersSpawned;
    };
    const auto note_crash = [&] {
        MutexLock lock(shared.mutex);
        ++shared.stats.workerCrashes;
        if (metricsActive())
            MetricsRegistry::instance().addCounter(
                "gllcd.worker_crashes");
    };
    const auto note_timeout = [&] {
        MutexLock lock(shared.mutex);
        ++shared.stats.cellTimeouts;
        if (metricsActive())
            MetricsRegistry::instance().addCounter(
                "gllcd.cell_timeouts");
    };

    for (const auto &[frame_idx, policy_idx] : cells) {
        CellOutcome &out =
            outcomes[frame_idx * num_policies + policy_idx];
        const CellKey expect{spec.frames[frame_idx].app,
                             spec.frames[frame_idx].frameIndex,
                             spec.policies[policy_idx]};
        // One round trip: "" with out.cell filled, or the error.
        const auto attempt_cell = [&](unsigned attempt) {
            if (!proc.alive()) {
                const std::string error = proc.spawn(exe, spec_line);
                if (!error.empty())
                    return error;
                note_spawn();
                send_trace_context();
            }
            const auto attempt_start =
                std::chrono::steady_clock::now();
            std::string line;
            RecvStatus received = RecvStatus::Eof;
            if (proc.sendLine(cellRequestLine(frame_idx, policy_idx,
                                              attempt)))
                received = proc.receive(line);
            recordLatencyMs(
                "gllcd.cell.exec_ms",
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - attempt_start)
                    .count());
            if (received != RecvStatus::Line) {
                // The unanswered request names the killer cell.  A
                // hung worker must die by SIGKILL first: it is not
                // reading its socket, so only the grace period
                // would end shutdown()'s reap.
                const bool hung = received == RecvStatus::Timeout;
                if (hung) {
                    proc.kill();
                    note_timeout();
                } else {
                    note_crash();
                }
                const std::string how = proc.shutdown();
                warn("gllcd worker %s (%s) on cell %s (attempt %u)",
                     hung ? "hung past the cell timeout" : "died",
                     how.c_str(), expect.toString().c_str(),
                     attempt);
                return hung ? "cell exceeded timeout "
                        + std::to_string(spec.cellTimeoutMs) + " ms"
                            : "worker crashed (" + how + ")";
            }
            SweepCell cell;
            if (parseCheckpointCellLine(line, cell)
                && cell.key == expect) {
                out.cell = std::move(cell);
                return std::string();
            }
            FailedCell failed;
            if (parseFailedCellLine(line, failed)
                && failed.key == expect)
                return failed.error;
            // Unparseable response: the worker is off the rails;
            // treat it like a crash of this cell.
            const std::string how = proc.shutdown();
            note_crash();
            warn("gllcd worker spoke garbage (%s) on cell %s",
                 how.c_str(), expect.toString().c_str());
            return "worker protocol failure (" + how + ")";
        };
        const RetryOutcome run = withRetries(
            spec.retries + 1, spec.backoffMs, attempt_cell,
            [&](unsigned attempt, const std::string &error) {
                emitCellEvent(telemetry, "cell_retry", expect,
                              attempt, error);
            });
        out.done = true;
        out.ok = run.error.empty();
        out.error = run.error;
        out.attempts = run.attempts;
        if (metricsActive())
            MetricsRegistry::instance().recordValue(
                "gllcd.cell.attempts", out.attempts);
        if (!out.ok)
            emitCellEvent(telemetry, "cell_quarantined", expect,
                          out.attempts, out.error);
    }
    proc.shutdown();
}

} // namespace

Result<SweepResult>
runShardedSweep(const SweepJobSpec &spec, unsigned workers,
                ShardedRunStats *stats,
                const ShardTelemetry *telemetry)
{
    Result<Unit> valid = spec.validate();
    if (!valid.ok())
        return valid.error();

    const auto start = std::chrono::steady_clock::now();
    const std::size_t num_frames = spec.frames.size();
    const std::size_t num_policies = spec.policies.size();
    const unsigned shard_count = static_cast<unsigned>(std::min(
        static_cast<std::size_t>(std::max(workers, 1u)),
        num_frames));
    const std::string spec_line = spec.toJson() + "\n";

    // Frames round-robin over shards: each frame's cells stay in
    // one worker, so its trace renders exactly once.
    std::vector<std::vector<std::pair<std::size_t, std::size_t>>>
        shards(shard_count);
    for (std::size_t f = 0; f < num_frames; ++f) {
        for (std::size_t p = 0; p < num_policies; ++p)
            shards[f % shard_count].emplace_back(f, p);
    }

    std::vector<CellOutcome> outcomes(num_frames * num_policies);
    SharedStats shared;
    {
        std::vector<std::thread> drivers;
        drivers.reserve(shard_count);
        for (unsigned s = 0; s < shard_count; ++s) {
            drivers.emplace_back([&, s] {
                runShard(spec, spec_line, shards[s], outcomes,
                         num_policies, shared, telemetry);
            });
        }
        for (std::thread &t : drivers)
            t.join();
    }

    // Merge in deterministic engine order: surviving cells first
    // (frame-major, policy-minor), quarantined cells alongside.
    std::vector<SweepCell> cells;
    cells.reserve(outcomes.size());
    std::vector<QuarantinedCell> quarantined;
    for (std::size_t k = 0; k < outcomes.size(); ++k) {
        CellOutcome &out = outcomes[k];
        GLLC_ASSERT_MSG(out.done, "sharded cell left unprocessed");
        if (out.ok) {
            cells.push_back(std::move(out.cell));
        } else {
            const std::size_t f = k / num_policies;
            const std::size_t p = k % num_policies;
            quarantined.push_back(
                {CellKey{spec.frames[f].app,
                         spec.frames[f].frameIndex,
                         spec.policies[p]},
                 out.error, out.attempts});
        }
    }

    RenderScale scale;
    scale.linear = spec.scaleLinear;
    scale.scatterPages = spec.scatterPages;
    const double wall =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();
    if (stats != nullptr) {
        MutexLock lock(shared.mutex);
        *stats = shared.stats;
    }
    return SweepResult::fromParts(
        spec.policies, scale,
        scaledLlcConfig(spec.llcBytes, scale.pixelScale()),
        std::move(cells), std::move(quarantined), 0, wall,
        shard_count);
}

int
runSweepWorker()
{
    // The daemon's telemetry env vars are inherited through exec;
    // left in place, every worker's atexit exporters would race to
    // clobber the daemon's own stats/trace files.  Workers report
    // through the line protocol and the trace context instead.
    ::unsetenv("GLLC_STATS_JSON");
    ::unsetenv("GLLC_TRACE_OUT");

    // Line 1: the job spec this worker serves cells of.
    char *buf = nullptr;
    std::size_t cap = 0;
    ssize_t n = ::getline(&buf, &cap, stdin);
    if (n < 0) {
        std::free(buf);
        return 65;  // EX_DATAERR: no spec
    }
    const std::string spec_json(buf, static_cast<std::size_t>(n));
    Result<SweepJobSpec> parsed = parseSweepJobSpec(spec_json);
    if (!parsed.ok()) {
        std::free(buf);
        warn("gllcd worker: bad spec: %s",
             parsed.error().toString().c_str());
        return 65;
    }
    const SweepJobSpec spec = parsed.take();
    Result<Unit> valid = spec.validate();
    if (!valid.ok()) {
        std::free(buf);
        warn("gllcd worker: invalid spec: %s",
             valid.error().toString().c_str());
        return 65;
    }

    RenderScale scale;
    scale.linear = spec.scaleLinear;
    scale.scatterPages = spec.scatterPages;
    const LlcConfig llc =
        scaledLlcConfig(spec.llcBytes, scale.pixelScale());

    std::vector<PolicySpec> policies;
    policies.reserve(spec.policies.size());
    for (const std::string &name : spec.policies)
        policies.push_back(tryPolicySpec(name).takeOrFatal());
    std::map<std::string, const AppProfile *> apps;
    for (const AppProfile &app : paperApps())
        apps[app.name] = &app;

    // Trace context (set by the optional trace line): where this
    // worker's spans go and how to land them on the daemon's clock.
    std::string trace_id;
    std::string trace_out;
    double daemon_epoch_us = 0.0;

    // Serve cell requests until the parent hangs up.
    int rc = 0;
    while ((n = ::getline(&buf, &cap, stdin)) >= 0) {
        const std::string line(buf, static_cast<std::size_t>(n));
        Result<JsonValue> doc = parseJson(line);
        const JsonValue *trace_node =
            doc.ok() && doc.value().isObject()
                ? doc.value().find("trace")
                : nullptr;
        if (trace_node != nullptr) {
            const JsonValue *id = trace_node->isObject()
                ? trace_node->find("id") : nullptr;
            const JsonValue *epoch = trace_node->isObject()
                ? trace_node->find("epoch_us") : nullptr;
            const JsonValue *out = trace_node->isObject()
                ? trace_node->find("out") : nullptr;
            if (id == nullptr || !id->isString() || epoch == nullptr
                || !epoch->isNumber() || out == nullptr
                || !out->isString()) {
                warn("gllcd worker: malformed trace context");
                rc = 65;
                break;
            }
            trace_id = id->string();
            daemon_epoch_us = epoch->number();
            trace_out = out->string();
            setTraceEventsActive(true);
            continue;  // configuration, not a request: no reply
        }
        const JsonValue *cell_node =
            doc.ok() && doc.value().isObject()
                ? doc.value().find("cell")
                : nullptr;
        const JsonValue *frame_node =
            cell_node != nullptr && cell_node->isObject()
                ? cell_node->find("frame")
                : nullptr;
        const JsonValue *policy_node =
            cell_node != nullptr && cell_node->isObject()
                ? cell_node->find("policy")
                : nullptr;
        const JsonValue *attempt_node =
            cell_node != nullptr && cell_node->isObject()
                ? cell_node->find("attempt")
                : nullptr;
        if (frame_node == nullptr || policy_node == nullptr
            || attempt_node == nullptr) {
            warn("gllcd worker: unintelligible request");
            rc = 65;
            break;
        }
        Result<std::uint64_t> frame_idx = frame_node->asU64("frame");
        Result<std::uint64_t> policy_idx =
            policy_node->asU64("policy");
        Result<std::uint64_t> attempt_no =
            attempt_node->asU64("attempt");
        if (!frame_idx.ok() || !policy_idx.ok() || !attempt_no.ok()
            || frame_idx.value() >= spec.frames.size()
            || policy_idx.value() >= spec.policies.size()
            || attempt_no.value() == 0) {
            warn("gllcd worker: cell request out of range");
            rc = 65;
            break;
        }
        const SweepJobFrame &frame =
            spec.frames[frame_idx.value()];
        const PolicySpec &policy = policies[policy_idx.value()];
        const unsigned attempt =
            static_cast<unsigned>(attempt_no.value());

        SweepCell cell;
        cell.key = {frame.app, frame.frameIndex, policy.name};
        cell.attempts = attempt;

        // The crash site fires before any reply, so the parent sees
        // EOF on exactly this cell.  _Exit skips atexit/destructors:
        // this models a hard death, not an orderly failure.
        if (faultFires(FaultSite::WorkerCrash,
                       faultKey(cell.key, attempt)))
            std::_Exit(kWorkerCrashExitCode);

        TraceSpan span("cell", cell.key.toString(),
                       {{"app", cell.key.app},
                        {"frame",
                         std::to_string(cell.key.frameIndex)},
                        {"policy", cell.key.policy},
                        {"trace", trace_id}});
        const std::string error = guarded([&] {
            // The in-process engine's injection sites and cell body;
            // cell.delay is how tests make a worker hang past the
            // cell timeout.
            injectCellFaults(cell.key, attempt);
            const FrameTrace trace = cachedRenderFrame(
                *apps.at(frame.app), frame.frameIndex, scale);
            runCell(cell, trace, policy, llc, nullptr);
        });
        const std::string reply =
            error.empty()
                ? checkpointCellLine(cell)
                : failedCellLine(cell.key, attempt, error);
        if (!writeAllDeadline(1, reply.data(), reply.size(), 0)
                 .ok()) {
            rc = 74;  // EX_IOERR: parent is gone
            break;
        }
    }
    std::free(buf);

    // Flush this worker's spans where the daemon's stitcher expects
    // them, shifted onto the daemon's trace clock and stamped with
    // the real pid so the merged timeline shows one track per
    // worker process.  Crashed workers never get here; the stitcher
    // simply finds fewer files.
    if (!trace_out.empty()) {
        std::ofstream os(trace_out, std::ios::trunc);
        if (os) {
            const TraceCollector &collector =
                TraceCollector::instance();
            collector.writeJsonl(
                os,
                collector.epochSinceBootUs() - daemon_epoch_us,
                static_cast<std::uint32_t>(::getpid()));
        } else {
            warn("gllcd worker: cannot write trace %s",
                 trace_out.c_str());
        }
    }
    return rc;
}

} // namespace gllc

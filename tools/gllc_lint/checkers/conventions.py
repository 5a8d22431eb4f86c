"""Line-level convention checkers clang-tidy cannot express (or
that must run without any LLVM tooling installed)."""

import re
from pathlib import Path

from ..core import Finding, register

BARE_ASSERT = re.compile(r"(?<![\w:])assert\s*\(")
BANNED_RAND = re.compile(
    r"(?<![\w:])(?:std::)?(?:rand|srand|rand_r)\s*\(")
RAW_STDERR = re.compile(r"(?:std::)?v?fprintf\s*\(\s*stderr\b")
RAW_GETENV = re.compile(r"(?<![\w:])(?:std::)?getenv\s*\(")

# The only files in src/ allowed to write stderr directly: the
# logging sink itself and the throttled progress reporter.
STDERR_ALLOWLIST = {
    Path("src/common/logging.cc"),
    Path("src/common/progress.cc"),
}

# The only file allowed to call getenv: the env-knob wrapper itself.
GETENV_ALLOWLIST = {
    Path("src/common/env.cc"),
}

RAW_SOCKET_IO = re.compile(
    r"(?<![\w.>])(?:::)?(?:read|write|recv|send|readv|writev|"
    r"recvmsg|sendmsg)\s*\(")

# The one service file exempt from the deadline-IO rule: protocol.cc
# implements the deadline wrappers themselves.
CONN_DEADLINE_ALLOWLIST = {
    Path("src/service/protocol.cc"),
}

PROCESS_SPAWN = re.compile(
    r"(?<![\w.>:])(?:::|std::)?(fork|vfork|execl|execle|execlp|execv|"
    r"execve|execvp|execvpe|fexecve|popen|system|pipe|pipe2|"
    r"posix_spawnp?)\s*\(")

# The one place a child process starts: WorkerProcess::spawn, whose
# posix_spawn file actions leave the child holding fds 0-2 only.
SPAWN_ALLOWLIST = {
    Path("src/service/worker.cc"),
}


@register
class BareAssert:
    """GLLC_ASSERT survives NDEBUG and honours -DGLLC_ASSERTS=OFF;
    a bare assert() silently vanishes from release builds."""

    name = "bare-assert"
    description = ("bare assert(); use GLLC_ASSERT / GLLC_ASSERT_MSG "
                   "(common/logging.hh)")

    def check_file(self, ctx):
        for lineno, line in enumerate(ctx.code_lines, start=1):
            for match in BARE_ASSERT.finditer(line):
                # static_assert survives the (?<![\w:]) guard only
                # when written "static_assert"; re-check to be safe.
                if line[: match.start()].rstrip().endswith("static"):
                    continue
                yield Finding(
                    self.name, str(ctx.rel), lineno,
                    "bare assert(); use GLLC_ASSERT / GLLC_ASSERT_MSG "
                    "from common/logging.hh")


@register
class BannedRand:
    """All randomness flows through gllc::Rng so experiments are
    reproducible from seeds."""

    name = "banned-rand"
    description = ("std::rand/srand/rand_r; use gllc::Rng "
                   "(common/rng.hh)")

    def check_file(self, ctx):
        for lineno, line in enumerate(ctx.code_lines, start=1):
            if BANNED_RAND.search(line):
                yield Finding(
                    self.name, str(ctx.rel), lineno,
                    "std::rand/srand; use gllc::Rng (common/rng.hh) "
                    "so runs are seed-reproducible")


@register
class RawStderr:
    """Diagnostics go through warn()/note()/panic()/fatal() or the
    shared ProgressMeter so they stay greppable and tagged."""

    name = "raw-stderr"
    description = ("raw fprintf(stderr) in src/; use logging.hh or "
                   "the progress reporter")

    def check_file(self, ctx):
        if ctx.rel.parts[0] != "src" or ctx.rel in STDERR_ALLOWLIST:
            return
        for lineno, line in enumerate(ctx.code_lines, start=1):
            if RAW_STDERR.search(line):
                yield Finding(
                    self.name, str(ctx.rel), lineno,
                    "raw fprintf(stderr); use warn()/note() "
                    "(common/logging.hh) or the progress reporter")


@register
class ConnDeadline:
    """A slow or dead client must never pin a connection thread: all
    client-socket IO in the service layer goes through the
    deadline-bounded wrappers (readFrame/writeFrame with timeout_ms,
    readSomeDeadline/writeAllDeadline), never raw read/write/recv/
    send.  One unbounded call is a slowloris foothold."""

    name = "conn-deadline"
    description = ("raw socket IO in src/service/; use the deadline "
                   "wrappers from service/protocol.hh")

    def check_file(self, ctx):
        if len(ctx.rel.parts) < 2 or ctx.rel.parts[:2] != (
                "src", "service"):
            return
        if ctx.rel in CONN_DEADLINE_ALLOWLIST or ctx.is_header:
            return
        for lineno, line in enumerate(ctx.code_lines, start=1):
            if RAW_SOCKET_IO.search(line):
                yield Finding(
                    self.name, str(ctx.rel), lineno,
                    "raw socket IO in the service layer; use the "
                    "deadline-bounded helpers in service/protocol.hh "
                    "(readFrame/writeFrame with timeout_ms, "
                    "readSomeDeadline/writeAllDeadline) so a slow "
                    "client cannot pin this thread")


@register
class ProcessSpawn:
    """Every child process starts through WorkerProcess::spawn, whose
    posix_spawn file actions close every fd above 2 in the child.  A
    bare fork/exec, popen/system or pipe elsewhere would hand a child
    whatever the daemon has open (listen sockets, the journal,
    sibling workers' channels) and let a leak withhold an EOF."""

    name = "process-spawn"
    description = ("fork/exec/popen/system/pipe in src/; spawn "
                   "children through WorkerProcess::spawn")

    def check_file(self, ctx):
        if ctx.rel.parts[0] != "src":
            return
        for lineno, line in enumerate(ctx.code_lines, start=1):
            for match in PROCESS_SPAWN.finditer(line):
                if (match.group(1).startswith("posix_spawn")
                        and ctx.rel in SPAWN_ALLOWLIST):
                    continue
                yield Finding(
                    self.name, str(ctx.rel), lineno,
                    f"{match.group(1)}() in src/; start children only "
                    "through WorkerProcess::spawn (service/worker.cc), "
                    "whose posix_spawn leaves them fds 0-2 only")


@register
class RawGetenv:
    """Environment knobs flow through envInt()/envString() and are
    sampled once at construction, never in per-access code."""

    name = "raw-getenv"
    description = "getenv outside src/common/env.cc"

    def check_file(self, ctx):
        if ctx.rel in GETENV_ALLOWLIST:
            return
        for lineno, line in enumerate(ctx.code_lines, start=1):
            if RAW_GETENV.search(line):
                yield Finding(
                    self.name, str(ctx.rel), lineno,
                    "getenv; use envInt()/envString() (common/env.hh) "
                    "and sample the knob once at construction, not "
                    "per access")

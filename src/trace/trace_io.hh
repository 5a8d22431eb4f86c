/**
 * @file
 * Binary serialization of frame traces.
 *
 * Generating a frame trace costs far more than replaying it, so the
 * harnesses can cache traces on disk: `tracegen` writes them and any
 * replay tool loads them back.  The format (version 3) is a fixed
 * little-endian header followed by the packed MemAccess records, each
 * section followed by its checksum so bit rot in a cached trace is
 * detected instead of silently skewing results:
 *
 *   magic    "GLLCTRC3"                      8 bytes
 *   names    u32 length + bytes, twice       (trace name, app name)
 *   u32      frameIndex
 *   u64 x 6  FrameWork counters
 *   u64      access count
 *   u64      header checksum (checksum64 of the bytes after the magic)
 *   records  16-byte MemAccess entries
 *   u64      record checksum (checksum64 of the record bytes)
 *
 * checksum64 (common/hash.hh) runs four interleaved FNV-1a lanes over
 * 8-byte words, an FNV-1a tail seeded by the length and a mix64 fold;
 * any single flipped bit changes it.  Readers accept version 3 only:
 * the checksum-free "GLLCTRC1" and the byte-serial FNV-1a "GLLCTRC2"
 * files fail with BadVersion, and the trace cache regenerates them.
 *
 * Robustness contract: the try* readers never abort.  Malformed
 * input of any kind — wrong magic, unsupported version, truncation,
 * absurd declared sizes, out-of-range stream tags, checksum
 * mismatches — comes back as a typed Error, which is what lets the
 * sweep engine quarantine a rotten cached trace and regenerate it
 * instead of dying hours into a batch run.  The fault-injection
 * sites trace.bitflip / trace.truncate (common/fault.hh) corrupt
 * reads on demand to keep those paths tested.  The unprefixed
 * readers are legacy wrappers that fatal() on error.
 */

#ifndef GLLC_TRACE_TRACE_IO_HH
#define GLLC_TRACE_TRACE_IO_HH

#include <iosfwd>
#include <string>

#include "common/result.hh"
#include "trace/frame_trace.hh"

namespace gllc
{

/** Serialize @p trace to a stream (always the current version). */
void writeTrace(const FrameTrace &trace, std::ostream &os);

/** Serialize @p trace to a file; typed error on I/O failure. */
[[nodiscard]] Result<Unit> tryWriteTraceFile(const FrameTrace &trace,
                               const std::string &path);

/** Legacy wrapper over tryWriteTraceFile(); fatal on I/O failure. */
void writeTraceFile(const FrameTrace &trace, const std::string &path);

/** Deserialize a trace from a stream; typed error on bad input. */
[[nodiscard]] Result<FrameTrace> tryReadTrace(std::istream &is);

/** Deserialize a trace from a file; typed error on bad input. */
[[nodiscard]] Result<FrameTrace>
tryReadTraceFile(const std::string &path);

/** Legacy wrapper over tryReadTrace(); fatal on malformed input. */
FrameTrace readTrace(std::istream &is);

/** Legacy wrapper over tryReadTraceFile(); fatal on I/O failure. */
FrameTrace readTraceFile(const std::string &path);

} // namespace gllc

#endif // GLLC_TRACE_TRACE_IO_HH

/**
 * @file
 * Tests for frame-trace binary serialization: round trips, the
 * legacy fatal wrappers, the hardened typed-error readers fed
 * with a truncation / bit-flip / bad-magic / bad-checksum corpus
 * (directly and through the fault injector), the pinned v3 format
 * and the trace cache's replacement of files in older formats.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unistd.h>

#include "common/fault.hh"
#include "common/hash.hh"
#include "common/metrics.hh"
#include "trace/trace_io.hh"
#include "workload/trace_cache.hh"

using namespace gllc;

namespace
{

FrameTrace
sampleTrace()
{
    FrameTrace t;
    t.name = "App/f3";
    t.app = "App";
    t.frameIndex = 3;
    t.work.shaderOps = 111;
    t.work.texelRequests = 222;
    t.work.pixelsShaded = 333;
    t.work.verticesShaded = 444;
    t.work.rawMemOps = 555;
    t.work.issueCycles = 666;
    for (Addr b = 0; b < 100; ++b) {
        t.accesses.emplace_back(
            b * kBlockBytes,
            static_cast<StreamType>(b % kNumStreams), b % 3 == 0,
            static_cast<std::uint32_t>(b * 7));
    }
    return t;
}

/**
 * @p trace in a retired layout: version '1' (no checksums) or '2'
 * (fnv1a64 over the header bytes after the magic and over the
 * records).  The field layout is the one version 3 still uses.
 */
std::string
legacyTraceBytes(const FrameTrace &trace, char version)
{
    std::string header;
    const auto pod = [&header](const auto &v) {
        header.append(reinterpret_cast<const char *>(&v), sizeof(v));
    };
    for (const std::string *str : {&trace.name, &trace.app}) {
        pod(static_cast<std::uint32_t>(str->size()));
        header.append(*str);
    }
    pod(trace.frameIndex);
    for (const std::uint64_t v :
         {trace.work.shaderOps, trace.work.texelRequests,
          trace.work.pixelsShaded, trace.work.verticesShaded,
          trace.work.rawMemOps, trace.work.issueCycles,
          static_cast<std::uint64_t>(trace.accesses.size())})
        pod(v);

    const std::string records(
        reinterpret_cast<const char *>(trace.accesses.data()),
        trace.accesses.size() * sizeof(MemAccess));
    std::string out = std::string("GLLCTRC") + version + header;
    if (version == '2') {
        const std::uint64_t sum = fnv1a64(header);
        out.append(reinterpret_cast<const char *>(&sum), sizeof(sum));
    }
    out += records;
    if (version == '2') {
        const std::uint64_t sum = fnv1a64(records);
        out.append(reinterpret_cast<const char *>(&sum), sizeof(sum));
    }
    return out;
}

} // namespace

TEST(TraceIo, RoundTripPreservesEverything)
{
    const FrameTrace original = sampleTrace();
    std::stringstream buffer;
    writeTrace(original, buffer);
    const FrameTrace loaded = readTrace(buffer);

    EXPECT_EQ(loaded.name, original.name);
    EXPECT_EQ(loaded.app, original.app);
    EXPECT_EQ(loaded.frameIndex, original.frameIndex);
    EXPECT_EQ(loaded.work.shaderOps, original.work.shaderOps);
    EXPECT_EQ(loaded.work.texelRequests, original.work.texelRequests);
    EXPECT_EQ(loaded.work.pixelsShaded, original.work.pixelsShaded);
    EXPECT_EQ(loaded.work.verticesShaded,
              original.work.verticesShaded);
    EXPECT_EQ(loaded.work.rawMemOps, original.work.rawMemOps);
    EXPECT_EQ(loaded.work.issueCycles, original.work.issueCycles);
    ASSERT_EQ(loaded.accesses.size(), original.accesses.size());
    for (std::size_t i = 0; i < loaded.accesses.size(); ++i) {
        EXPECT_EQ(loaded.accesses[i].addr, original.accesses[i].addr);
        EXPECT_EQ(loaded.accesses[i].stream,
                  original.accesses[i].stream);
        EXPECT_EQ(loaded.accesses[i].isWrite,
                  original.accesses[i].isWrite);
        EXPECT_EQ(loaded.accesses[i].cycle,
                  original.accesses[i].cycle);
    }
}

TEST(TraceIo, EmptyTraceRoundTrips)
{
    FrameTrace t;
    t.name = "empty";
    std::stringstream buffer;
    writeTrace(t, buffer);
    const FrameTrace loaded = readTrace(buffer);
    EXPECT_EQ(loaded.name, "empty");
    EXPECT_TRUE(loaded.accesses.empty());
}

TEST(TraceIo, FileRoundTrip)
{
    const std::string path = ::testing::TempDir() + "/gllc_trace.bin";
    const FrameTrace original = sampleTrace();
    writeTraceFile(original, path);
    const FrameTrace loaded = readTraceFile(path);
    EXPECT_EQ(loaded.name, original.name);
    EXPECT_EQ(loaded.accesses.size(), original.accesses.size());
    std::remove(path.c_str());
}

TEST(TraceIoDeath, BadMagicIsFatal)
{
    std::stringstream buffer;
    buffer << "NOTATRACEFILE-----------";
    EXPECT_EXIT(readTrace(buffer), ::testing::ExitedWithCode(1),
                "bad magic");
}

TEST(TraceIoDeath, TruncatedFileIsFatal)
{
    std::stringstream buffer;
    writeTrace(sampleTrace(), buffer);
    const std::string full = buffer.str();
    std::stringstream truncated(full.substr(0, full.size() / 2));
    EXPECT_EXIT(readTrace(truncated), ::testing::ExitedWithCode(1),
                "truncated");
}

TEST(TraceIoDeath, MissingFileIsFatal)
{
    EXPECT_EXIT(readTraceFile("/nonexistent/path/trace.bin"),
                ::testing::ExitedWithCode(1), "cannot open");
}

// ---------------------------------------------------------------
// Typed-error readers: corrupt inputs must come back as errors,
// never as aborts and never as silently wrong data.
// ---------------------------------------------------------------

TEST(TraceIoTyped, MissingFileIsIoError)
{
    Result<FrameTrace> r =
        tryReadTraceFile("/nonexistent/path/trace.bin");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, ErrorCode::Io);
    // The path rides in the context for quarantine reports.
    EXPECT_NE(r.error().context.find("/nonexistent/path/trace.bin"),
              std::string::npos);
}

TEST(TraceIoTyped, BadMagicIsTyped)
{
    std::stringstream buffer;
    buffer << "NOTATRACEFILE-----------";
    Result<FrameTrace> r = tryReadTrace(buffer);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, ErrorCode::BadMagic);
}

TEST(TraceIoTyped, UnsupportedVersionIsTyped)
{
    std::stringstream good;
    writeTrace(sampleTrace(), good);
    std::string bytes = good.str();
    bytes[7] = '9';  // version byte of "GLLCTRC3"
    std::stringstream buffer(bytes);
    Result<FrameTrace> r = tryReadTrace(buffer);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, ErrorCode::BadVersion);
}

TEST(TraceIoTyped, TruncationAtEveryLengthIsAnError)
{
    std::stringstream good;
    writeTrace(sampleTrace(), good);
    const std::string full = good.str();
    for (std::size_t len = 0; len < full.size(); ++len) {
        std::stringstream cut(full.substr(0, len));
        Result<FrameTrace> r = tryReadTrace(cut);
        ASSERT_FALSE(r.ok()) << "prefix length " << len;
        const ErrorCode code = r.error().code;
        EXPECT_TRUE(code == ErrorCode::Truncated
                    || code == ErrorCode::BadMagic
                    || code == ErrorCode::BadVersion
                    || code == ErrorCode::LimitExceeded
                    || code == ErrorCode::ChecksumMismatch)
            << "prefix length " << len << ": "
            << r.error().toString();
    }
}

TEST(TraceIoTyped, AnySingleBitFlipIsDetected)
{
    std::stringstream good;
    writeTrace(sampleTrace(), good);
    const std::string full = good.str();
    // Flip one bit per byte position (cycling through the bits) and
    // demand a typed error every time: the checksums must leave no
    // silently-accepted corruption.
    for (std::size_t i = 0; i < full.size(); ++i) {
        std::string bytes = full;
        bytes[i] = static_cast<char>(
            static_cast<unsigned char>(bytes[i]) ^ (1u << (i % 8)));
        std::stringstream buffer(bytes);
        Result<FrameTrace> r = tryReadTrace(buffer);
        EXPECT_FALSE(r.ok()) << "flipped bit " << i % 8
                             << " of byte " << i;
    }
}

TEST(TraceIoTyped, CorruptRecordIsChecksumMismatch)
{
    std::stringstream good;
    writeTrace(sampleTrace(), good);
    std::string bytes = good.str();
    // The record block sits before the trailing 8-byte checksum.
    bytes[bytes.size() - 16] ^= 0x40;
    std::stringstream buffer(bytes);
    Result<FrameTrace> r = tryReadTrace(buffer);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, ErrorCode::ChecksumMismatch);
}

TEST(TraceIoTyped, InjectedTruncationIsTypedAndAttributed)
{
    configureFaults("trace.truncate:p=1,n=1");
    std::stringstream good;
    writeTrace(sampleTrace(), good);
    Result<FrameTrace> r = tryReadTrace(good);
    configureFaults("");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, ErrorCode::Truncated);
    EXPECT_NE(r.error().context.find("injected"), std::string::npos);
}

TEST(TraceIoTyped, InjectedBitFlipIsCaughtByChecksum)
{
    configureFaults("trace.bitflip:p=1,n=1,seed=3");
    std::stringstream good;
    writeTrace(sampleTrace(), good);
    Result<FrameTrace> r = tryReadTrace(good);
    configureFaults("");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, ErrorCode::ChecksumMismatch);
}

TEST(TraceIoTyped, InjectorCorpusNeverCrashesTheReader)
{
    // Sustained low-probability corruption across many reads: every
    // outcome is either a clean trace or a typed error.
    configureFaults(
        "trace.bitflip:p=0.3,seed=11;trace.truncate:p=0.3,seed=12");
    const FrameTrace original = sampleTrace();
    std::size_t ok = 0, failed = 0;
    for (int i = 0; i < 64; ++i) {
        std::stringstream buffer;
        writeTrace(original, buffer);
        Result<FrameTrace> r = tryReadTrace(buffer);
        if (r.ok()) {
            ++ok;
            EXPECT_EQ(r.value().accesses.size(),
                      original.accesses.size());
        } else {
            ++failed;
        }
    }
    configureFaults("");
    EXPECT_GT(failed, 0u);
    EXPECT_EQ(ok + failed, 64u);
}

// ---------------------------------------------------------------
// Format v3: pinned checksum and size, one accepted version.
// ---------------------------------------------------------------

TEST(TraceIoV3, Checksum64GoldenValues)
{
    // Pinned forever: every cached trace file depends on them.  The
    // 43-byte string covers the four-lane loop, a leftover word and
    // a three-byte tail.
    const std::string fox = "The quick brown fox jumps over the lazy dog";
    EXPECT_EQ(checksum64(fox.data(), fox.size()), 0x757f33480e76ae2fULL);
    EXPECT_EQ(checksum64(fox.data(), 0), 0x3be753821173afdeULL);
}

TEST(TraceIoV3, Checksum64SeesEveryBitAndTheLength)
{
    std::string bytes(67, '\0');
    for (std::size_t i = 0; i < bytes.size(); ++i)
        bytes[i] = static_cast<char>(i * 37 + 11);
    const std::uint64_t base = checksum64(bytes.data(), bytes.size());
    for (std::size_t bit = 0; bit < bytes.size() * 8; ++bit) {
        std::string flipped = bytes;
        flipped[bit / 8] = static_cast<char>(
            static_cast<unsigned char>(flipped[bit / 8])
            ^ (1u << (bit % 8)));
        EXPECT_NE(checksum64(flipped.data(), flipped.size()), base)
            << "bit " << bit;
    }
    // Appending a zero byte or a zero word changes the sum.
    std::string longer = bytes + std::string(1, '\0');
    EXPECT_NE(checksum64(longer.data(), longer.size()), base);
    longer = bytes + std::string(8, '\0');
    EXPECT_NE(checksum64(longer.data(), longer.size()), base);
}

TEST(TraceIoV3, FileLayoutIsPinned)
{
    std::stringstream buffer;
    writeTrace(sampleTrace(), buffer);
    const std::string bytes = buffer.str();
    EXPECT_EQ(bytes.substr(0, 8), "GLLCTRC3");
    // magic 8 + names (4 + 6) + (4 + 3) + frame 4 + counters 48 +
    // count 8 + header sum 8 + 100 records x 16 + record sum 8.
    EXPECT_EQ(bytes.size(), 1701u);
    // Both checksums are checksum64 of their section.
    const std::size_t header_end = 8 + 10 + 7 + 4 + 48 + 8;
    std::uint64_t header_sum = 0;
    std::uint64_t record_sum = 0;
    std::memcpy(&header_sum, bytes.data() + header_end, 8);
    std::memcpy(&record_sum, bytes.data() + bytes.size() - 8, 8);
    EXPECT_EQ(header_sum, checksum64(bytes.data() + 8, header_end - 8));
    EXPECT_EQ(record_sum,
              checksum64(bytes.data() + header_end + 8, 1600));
}

TEST(TraceIoV3, RetiredVersionsAreBadVersion)
{
    for (const char version : {'1', '2'}) {
        std::stringstream buffer(
            legacyTraceBytes(sampleTrace(), version));
        Result<FrameTrace> r = tryReadTrace(buffer);
        ASSERT_FALSE(r.ok()) << "GLLCTRC" << version;
        EXPECT_EQ(r.error().code, ErrorCode::BadVersion)
            << r.error().toString();
    }
}

TEST(TraceIoV3, TraceCacheRewritesAStaleV2File)
{
    RenderScale scale;
    scale.linear = 8;
    const AppProfile &app = paperApps().front();
    const std::string dir = ::testing::TempDir() + "/gllc_trace_v2_"
        + std::to_string(::getpid());
    std::filesystem::create_directories(dir);
    const std::string path = traceCachePath(app, 0, scale, dir);
    const FrameTrace fresh = renderFrame(app, 0, scale);
    {
        std::ofstream os(path, std::ios::binary);
        os << legacyTraceBytes(fresh, '2');
    }

    MetricsRegistry::instance().reset();
    setMetricsActive(true);
    const FrameTrace first = cachedRenderFrame(app, 0, scale, dir);
    const FrameTrace second = cachedRenderFrame(app, 0, scale, dir);
    const std::uint64_t discarded = MetricsRegistry::instance()
        .snapshot().counter("trace.cache_discarded");
    setMetricsActive(false);
    MetricsRegistry::instance().reset();

    // Discarded once, re-rendered, rewritten as v3; the second call
    // is a clean hit.
    EXPECT_EQ(discarded, 1u);
    std::ifstream is(path, std::ios::binary);
    char magic[8] = {};
    is.read(magic, sizeof(magic));
    EXPECT_EQ(std::string(magic, 8), "GLLCTRC3");
    Result<FrameTrace> reread = tryReadTraceFile(path);
    ASSERT_TRUE(reread.ok()) << reread.error().toString();
    for (const FrameTrace *t : {&first, &second, &reread.value()}) {
        ASSERT_EQ(t->accesses.size(), fresh.accesses.size());
        EXPECT_EQ(std::memcmp(t->accesses.data(), fresh.accesses.data(),
                              fresh.accesses.size() * sizeof(MemAccess)),
                  0);
        EXPECT_EQ(t->work.issueCycles, fresh.work.issueCycles);
    }
    std::filesystem::remove_all(dir);
}

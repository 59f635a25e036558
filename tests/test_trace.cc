/**
 * @file
 * Unit tests for trace sinks and statistics (the Table 1/2
 * machinery).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>

#include "helpers.hh"
#include "trace/cache.hh"
#include "trace/soa.hh"
#include "trace/stats.hh"

namespace branchlab::trace
{
namespace
{

BranchEvent
makeEvent(ir::Addr pc, bool conditional, bool taken, bool known = true)
{
    BranchEvent event;
    event.pc = pc;
    event.conditional = conditional;
    event.taken = taken;
    event.targetKnown = known;
    event.op = conditional ? ir::Opcode::Beq
                           : (known ? ir::Opcode::Jmp : ir::Opcode::JTab);
    event.targetAddr = pc + 10;
    event.fallthroughAddr = pc + 1;
    event.nextPc = taken ? event.targetAddr : event.fallthroughAddr;
    return event;
}

TEST(TraceStats, CountsSplitByKind)
{
    TraceStats stats;
    stats.onBranch(makeEvent(1, true, true));
    stats.onBranch(makeEvent(2, true, false));
    stats.onBranch(makeEvent(3, true, false));
    stats.onBranch(makeEvent(4, false, true, true));
    stats.onBranch(makeEvent(5, false, true, false));
    stats.addInstructions(20);

    EXPECT_EQ(stats.branches(), 5u);
    EXPECT_EQ(stats.conditionalBranches(), 3u);
    EXPECT_EQ(stats.unconditionalBranches(), 2u);
    EXPECT_EQ(stats.conditionalTaken(), 1u);
    EXPECT_EQ(stats.conditionalNotTaken(), 2u);
    EXPECT_EQ(stats.unconditionalKnown(), 1u);
    EXPECT_EQ(stats.unconditionalUnknown(), 1u);
    EXPECT_NEAR(stats.controlFraction(), 0.25, 1e-12);
    EXPECT_NEAR(stats.conditionalTakenFraction(), 1.0 / 3.0, 1e-12);
    EXPECT_NEAR(stats.unconditionalKnownFraction(), 0.5, 1e-12);
    EXPECT_NEAR(stats.conditionalFraction(), 0.6, 1e-12);
    EXPECT_NEAR(stats.instructionsPerBranch(), 4.0, 1e-12);
}

TEST(TraceStats, EmptyStatsAreZeroNotNan)
{
    TraceStats stats;
    EXPECT_EQ(stats.controlFraction(), 0.0);
    EXPECT_EQ(stats.conditionalTakenFraction(), 0.0);
    EXPECT_EQ(stats.unconditionalKnownFraction(), 0.0);
    EXPECT_EQ(stats.instructionsPerBranch(), 0.0);
}

TEST(TraceStats, MergeAccumulates)
{
    TraceStats a, b;
    a.onBranch(makeEvent(1, true, true));
    a.addInstructions(4);
    b.onBranch(makeEvent(2, false, true));
    b.addInstructions(6);
    a.merge(b);
    EXPECT_EQ(a.branches(), 2u);
    EXPECT_EQ(a.instructions(), 10u);
}

TEST(BranchRecorder, RecordsAndReplays)
{
    BranchRecorder recorder;
    recorder.onBranch(makeEvent(1, true, true));
    recorder.onBranch(makeEvent(2, false, true));
    ASSERT_EQ(recorder.size(), 2u);

    TraceStats stats;
    recorder.replayInto(stats);
    EXPECT_EQ(stats.branches(), 2u);

    recorder.clear();
    EXPECT_EQ(recorder.size(), 0u);
}

TEST(FanoutSink, ForwardsToAllSinks)
{
    TraceStats a, b;
    FanoutSink fanout;
    fanout.addSink(&a);
    fanout.addSink(&b);
    fanout.onBranch(makeEvent(1, true, false));
    EXPECT_EQ(a.branches(), 1u);
    EXPECT_EQ(b.branches(), 1u);
}

TEST(FanoutSink, WantsInstructionsOrsMembers)
{
    FanoutSink fanout;
    TraceStats stats; // does not want instructions
    fanout.addSink(&stats);
    EXPECT_FALSE(fanout.wantsInstructions());
    InstRecorder recorder;
    fanout.addSink(&recorder);
    EXPECT_TRUE(fanout.wantsInstructions());
    fanout.onInstruction(InstEvent{0x1000, ir::Opcode::Nop});
    EXPECT_EQ(recorder.addrs().size(), 1u);
}

TEST(BranchRecorder, TakeEventsLeavesRecorderReusable)
{
    BranchRecorder recorder;
    recorder.onBranch(makeEvent(1, true, true));
    recorder.onBranch(makeEvent(2, false, true));

    const std::vector<BranchEvent> taken = recorder.takeEvents();
    EXPECT_EQ(taken.size(), 2u);
    // The recorder must be in a defined empty state, not merely
    // "valid but unspecified": size is 0 and recording restarts
    // cleanly.
    EXPECT_EQ(recorder.size(), 0u);
    EXPECT_TRUE(recorder.events().empty());

    recorder.onBranch(makeEvent(3, true, false));
    ASSERT_EQ(recorder.size(), 1u);
    EXPECT_EQ(recorder.events()[0].pc, 3u);
}

TEST(TraceStats, CountersRoundTripLosslessly)
{
    TraceStats stats;
    stats.onBranch(makeEvent(1, true, true));
    stats.onBranch(makeEvent(2, false, true, false));
    stats.addInstructions(11);

    const TraceCounters counters = stats.counters();
    const TraceStats rebuilt = TraceStats::fromCounters(counters);
    EXPECT_EQ(rebuilt.counters(), counters);
    EXPECT_EQ(rebuilt.instructions(), stats.instructions());
    EXPECT_EQ(rebuilt.branches(), stats.branches());
    EXPECT_EQ(rebuilt.conditionalBranches(),
              stats.conditionalBranches());
    EXPECT_EQ(rebuilt.conditionalTaken(), stats.conditionalTaken());
    EXPECT_EQ(rebuilt.unconditionalKnown(),
              stats.unconditionalKnown());
}

// ---------------------------------------------------------------------
// Trace formats: the v2 columnar codec.
// ---------------------------------------------------------------------

void
expectSameEvents(const std::vector<BranchEvent> &a,
                 const std::vector<BranchEvent> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].pc, b[i].pc) << "event " << i;
        EXPECT_EQ(a[i].nextPc, b[i].nextPc) << "event " << i;
        EXPECT_EQ(a[i].targetAddr, b[i].targetAddr) << "event " << i;
        EXPECT_EQ(a[i].fallthroughAddr, b[i].fallthroughAddr)
            << "event " << i;
        EXPECT_EQ(a[i].op, b[i].op) << "event " << i;
        EXPECT_EQ(a[i].conditional, b[i].conditional) << "event " << i;
        EXPECT_EQ(a[i].taken, b[i].taken) << "event " << i;
        EXPECT_EQ(a[i].targetKnown, b[i].targetKnown) << "event " << i;
    }
}

std::vector<BranchEvent>
recordFactorialTrace()
{
    const ir::Program prog = test::buildFactorial(6);
    BranchRecorder recorder;
    test::runProgram(prog, &recorder);
    return recorder.takeEvents();
}

/** Write @p events as one BLTC entry file under the test temp dir
 *  (the file `branchlab record -o` exports). @return its path. */
std::string
writeEvents(const std::string &name, const std::vector<BranchEvent> &events,
            std::uint64_t content_hash = 0)
{
    CachedWorkload workload;
    workload.contentHash = content_hash;
    workload.stream = SoaTrace::fromEvents(events);
    const std::string path = ::testing::TempDir() + name;
    std::string error;
    EXPECT_TRUE(writeEntryFile(path, workload, error)) << error;
    return path;
}

/** Map @p path the way `branchlab replay` does (any embedded hash). */
bool
mapFile(const std::string &path, CachedWorkload &out, std::string &error,
        MapFailure &failure)
{
    out = CachedWorkload{};
    return mapEntryFile(path, std::nullopt, out, error, failure);
}

/** The events of a mapped entry file, decoded through its view. */
std::vector<BranchEvent>
readEvents(const std::string &path)
{
    CachedWorkload loaded;
    std::string error;
    MapFailure failure = MapFailure::None;
    EXPECT_TRUE(mapFile(path, loaded, error, failure)) << error;
    return materializeView(loaded.traceView()).toEvents();
}

TEST(TraceIoV2, WriteThenReadIsBitEquivalent)
{
    const std::vector<BranchEvent> events = recordFactorialTrace();
    ASSERT_FALSE(events.empty());
    const std::string path =
        writeEvents("blab_trace_rt.bltc", events, 0xfeedu);

    CachedWorkload loaded;
    std::string error;
    MapFailure failure = MapFailure::None;
    ASSERT_TRUE(mapFile(path, loaded, error, failure)) << error;
    EXPECT_EQ(loaded.contentHash, 0xfeedu);
    ASSERT_NE(loaded.mapped, nullptr);
    // The columnar layout is the point: the event columns are several
    // times smaller than 34-byte fixed records would be.
    const std::size_t n = events.size();
    EXPECT_LT(n + 4 * ((n + 7) / 8) + loaded.mapped->deltasLen +
                  loaded.mapped->anomalyDeltasLen,
              n * 34 / 4);
    expectSameEvents(materializeView(loaded.traceView()).toEvents(),
                     events);

    // A given expected hash must match the embedded one.
    CachedWorkload keyed;
    EXPECT_TRUE(mapEntryFile(path, 0xfeedu, keyed, error, failure));
    EXPECT_FALSE(mapEntryFile(path, 0xbeefu, keyed, error, failure));
    EXPECT_EQ(failure, MapFailure::Corrupt);

    // The retired fixed-record version 1 is refused, not decoded.
    std::string v1 = test::readFileBytes(path);
    v1[4] = '\x01';
    test::writeFileBytes(path, v1);
    EXPECT_FALSE(mapFile(path, loaded, error, failure));
    EXPECT_EQ(failure, MapFailure::Foreign);
    std::filesystem::remove(path);
}

TEST(TraceIoV2, AnomalousNextPcRoundTrips)
{
    // Synthetic events may violate the VM invariant
    // nextPc == (taken ? target : fallthrough); the anomaly side
    // channel must preserve them bit-exactly.
    std::vector<BranchEvent> events;
    events.push_back(makeEvent(0x1000, true, true));
    BranchEvent odd = makeEvent(0x1004, true, false);
    odd.nextPc = 0x9999; // neither target nor fallthrough
    events.push_back(odd);
    BranchEvent far = makeEvent(0x2000, false, true);
    far.nextPc = ir::kNoAddr; // extreme delta
    events.push_back(far);

    const std::string path = writeEvents("blab_trace_odd.bltc", events);
    expectSameEvents(readEvents(path), events);
    std::filesystem::remove(path);
}

TEST(TraceIoV2, EncodeDecodePayloadRoundTrips)
{
    // Decode the mapped entry and write the decoded stream back out:
    // the second file must be byte-identical to the first.
    const std::vector<BranchEvent> events = recordFactorialTrace();
    const std::string first =
        writeEvents("blab_trace_enc1.bltc", events, 7);
    CachedWorkload decoded;
    std::string error;
    MapFailure failure = MapFailure::None;
    ASSERT_TRUE(mapFile(first, decoded, error, failure)) << error;
    expectSameEvents(materializeView(decoded.traceView()).toEvents(),
                     events);

    CachedWorkload again;
    again.contentHash = decoded.contentHash;
    again.stream = materializeView(decoded.traceView());
    const std::string second =
        ::testing::TempDir() + "blab_trace_enc2.bltc";
    ASSERT_TRUE(writeEntryFile(second, again, error)) << error;
    EXPECT_EQ(test::readFileBytes(second), test::readFileBytes(first));
    std::filesystem::remove(first);
    std::filesystem::remove(second);
}

TEST(TraceIoV2, DecodeRejectsCorruptPayloadSoftly)
{
    const std::vector<BranchEvent> events = recordFactorialTrace();
    const std::string path = writeEvents("blab_trace_bad.bltc", events);
    const std::string whole = test::readFileBytes(path);
    EntryHeader header;
    ASSERT_EQ(decodeEntryHeader(
                  reinterpret_cast<const std::uint8_t *>(whole.data()),
                  whole.size(), header),
              "");
    const SectionRecord &ops = header.section(EntrySection::Ops);
    const SectionRecord &deltas = header.section(EntrySection::Deltas);

    CachedWorkload out;
    std::string error;
    MapFailure failure = MapFailure::None;
    // Truncation at any depth is a clean failure, never a crash.
    for (const std::uint64_t cut :
         {std::uint64_t{0}, std::uint64_t{6}, std::uint64_t{90},
          headerChecksumOffset(kEntrySectionCount) + 4, ops.offset + 1,
          deltas.offset + deltas.length - 2}) {
        test::writeFileBytes(path, whole.substr(0, cut));
        error.clear();
        EXPECT_FALSE(mapFile(path, out, error, failure)) << cut;
        EXPECT_FALSE(error.empty()) << cut;
        EXPECT_EQ(failure, MapFailure::Corrupt) << cut;
    }

    // A flipped delta byte fails its section checksum.
    std::string flipped = whole;
    flipped[deltas.offset] = static_cast<char>(flipped[deltas.offset] ^ 1);
    test::writeFileBytes(path, flipped);
    EXPECT_FALSE(mapFile(path, out, error, failure));
    EXPECT_EQ(failure, MapFailure::Corrupt);

    // Wrong count (resealed, as a buggy writer would leave it): the
    // fixed columns no longer have the declared lengths.
    std::string recount = whole;
    recount[72] = static_cast<char>(recount[72] + 1); // event count
    test::writeFileBytes(path, recount);
    test::resealEntryFile(path);
    EXPECT_FALSE(mapFile(path, out, error, failure));
    EXPECT_EQ(failure, MapFailure::Corrupt);

    // A corrupt opcode byte behind a valid checksum is diagnosed.
    std::string bad_op = whole;
    bad_op[ops.offset] = '\x7f';
    test::writeFileBytes(path, bad_op);
    test::resealEntryFile(path);
    EXPECT_FALSE(mapFile(path, out, error, failure));
    EXPECT_EQ(failure, MapFailure::Corrupt);
    EXPECT_NE(error.find("bad opcode"), std::string::npos) << error;
    std::filesystem::remove(path);
}

TEST(TraceIoV2, RejectsUnsupportedVersion)
{
    const std::string path =
        writeEvents("blab_trace_v99.bltc", recordFactorialTrace());
    std::string bytes = test::readFileBytes(path);
    bytes[4] = '\x63'; // 99, little-endian u32
    test::writeFileBytes(path, bytes);
    CachedWorkload out;
    std::string error;
    MapFailure failure = MapFailure::None;
    EXPECT_FALSE(mapFile(path, out, error, failure));
    EXPECT_EQ(failure, MapFailure::Foreign);
    EXPECT_NE(error.find("99"), std::string::npos) << error;
    std::filesystem::remove(path);
}

TEST(TraceIoV2, RejectsTruncatedV2Stream)
{
    const std::string path =
        writeEvents("blab_trace_cut.bltc", recordFactorialTrace());
    std::filesystem::resize_file(path,
                                 std::filesystem::file_size(path) - 5);
    CachedWorkload out;
    std::string error;
    MapFailure failure = MapFailure::None;
    EXPECT_FALSE(mapFile(path, out, error, failure));
    EXPECT_EQ(failure, MapFailure::Corrupt);
    EXPECT_EQ(out.mapped, nullptr);
    std::filesystem::remove(path);
}

TEST(TraceIoV2, ReplayDeliversEveryEvent)
{
    const std::vector<BranchEvent> events = recordFactorialTrace();
    const std::string path = writeEvents("blab_trace_sink.bltc", events);
    CachedWorkload loaded;
    std::string error;
    MapFailure failure = MapFailure::None;
    ASSERT_TRUE(mapFile(path, loaded, error, failure)) << error;

    TraceStats replayed, direct;
    const TraceView view = loaded.traceView();
    TraceView::Cursor cursor = view.cursor();
    TraceBlock block;
    std::size_t delivered = 0;
    while (cursor.next(block)) {
        for (std::size_t i = 0; i < block.count; ++i, ++delivered)
            replayed.onBranch(block.event(i));
    }
    EXPECT_EQ(delivered, events.size());
    for (const BranchEvent &event : events)
        direct.onBranch(event);
    EXPECT_EQ(replayed.branches(), direct.branches());
    EXPECT_EQ(replayed.conditionalTaken(), direct.conditionalTaken());
    std::filesystem::remove(path);
}

// ---------------------------------------------------------------------
// The SoA trace buffer and the streaming column-wise v2 decoder.
// ---------------------------------------------------------------------

TEST(SoaTrace, FromEventsToEventsRoundTripsBitExactly)
{
    std::vector<BranchEvent> events = recordFactorialTrace();
    // Include anomalies the v2 side channel must carry.
    BranchEvent odd = makeEvent(0x1004, true, false);
    odd.nextPc = 0x9999;
    events.push_back(odd);

    const SoaTrace stream = SoaTrace::fromEvents(events);
    ASSERT_EQ(stream.size(), events.size());
    expectSameEvents(stream.toEvents(), events);

    // The per-event AoS view is exact too.
    ir::Addr max_pc = 0;
    for (std::size_t i = 0; i < events.size(); ++i) {
        expectSameEvents({stream.event(i)}, {events[i]});
        max_pc = std::max(max_pc, events[i].pc);
    }
    EXPECT_EQ(stream.maxPc(), max_pc);
}

TEST(SoaTrace, StreamingDecodeMatchesEventDecode)
{
    const std::vector<BranchEvent> events = recordFactorialTrace();
    const SoaTrace expected = SoaTrace::fromEvents(events);
    const std::string path = writeEvents("blab_trace_soa.bltc", events);

    // Decoding the mapped sections straight into columns must agree
    // with the event-built columns, plane bytes included.
    CachedWorkload loaded;
    std::string error;
    MapFailure failure = MapFailure::None;
    ASSERT_TRUE(mapFile(path, loaded, error, failure)) << error;
    const SoaTrace decoded = materializeView(loaded.traceView());
    EXPECT_EQ(decoded.ops(), expected.ops());
    EXPECT_EQ(decoded.conditionalPlane(), expected.conditionalPlane());
    EXPECT_EQ(decoded.takenPlane(), expected.takenPlane());
    EXPECT_EQ(decoded.targetKnownPlane(), expected.targetKnownPlane());
    EXPECT_EQ(decoded.pc(), expected.pc());
    EXPECT_EQ(decoded.nextPc(), expected.nextPc());
    EXPECT_EQ(decoded.targetAddr(), expected.targetAddr());
    EXPECT_EQ(decoded.fallthroughAddr(), expected.fallthroughAddr());
    EXPECT_EQ(decoded.maxPc(), expected.maxPc());
    expectSameEvents(decoded.toEvents(), events);

    // Corruption fails softly on the mapped path as well.
    std::filesystem::resize_file(path,
                                 std::filesystem::file_size(path) - 2);
    EXPECT_FALSE(mapFile(path, loaded, error, failure));
    EXPECT_FALSE(error.empty());
    std::filesystem::remove(path);
}

TEST(SoaTrace, AdoptColumnsRecomputesMaxPc)
{
    const std::vector<BranchEvent> events = recordFactorialTrace();
    const SoaTrace stream = SoaTrace::fromEvents(events);

    SoaTrace adopted;
    adopted.adoptColumns(stream.ops(), stream.conditionalPlane(),
                         stream.takenPlane(),
                         stream.targetKnownPlane(), stream.pc(),
                         stream.nextPc(), stream.targetAddr(),
                         stream.fallthroughAddr());
    ASSERT_EQ(adopted.size(), stream.size());
    EXPECT_EQ(adopted.maxPc(), stream.maxPc());
    expectSameEvents(adopted.toEvents(), events);
}

TEST(TraceStats, AgreesWithMachineCountsOnRealProgram)
{
    const ir::Program prog = test::buildCountdown(7);
    TraceStats stats;
    const vm::RunResult result = test::runProgram(prog, &stats);
    stats.addInstructions(result.instructions);
    EXPECT_EQ(stats.branches(), result.branches);
    EXPECT_EQ(stats.instructions(), result.instructions);
    // Countdown: one jmp + seven conditionals, six of them taken.
    EXPECT_EQ(stats.conditionalBranches(), 7u);
    EXPECT_EQ(stats.conditionalTaken(), 6u);
    EXPECT_EQ(stats.unconditionalKnown(), 1u);
}

} // namespace
} // namespace branchlab::trace

/**
 * @file
 * Tests for the non-owning trace views (trace/view.hh): cursor walks
 * and materialisation round-trips in both modes, and the differential
 * that anchors the zero-copy warm path -- for every workload in the
 * suite, replaying the mmap'd cache entry through every kernel must
 * be bit-identical to replaying the owning decoded stream.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <vector>

#include "core/runner.hh"
#include "predict/replay_kernels.hh"
#include "trace/cache.hh"
#include "trace/soa.hh"
#include "trace/view.hh"
#include "workloads/workload.hh"

namespace branchlab::trace
{
namespace
{

/** A synthetic stream long enough for several cursor blocks plus a
 *  ragged tail (not a multiple of the block size). */
std::vector<BranchEvent>
syntheticEvents(std::size_t count)
{
    std::vector<BranchEvent> events;
    events.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        BranchEvent e;
        e.pc = 0x100 + (i % 97) * 4;
        e.conditional = (i % 3) == 0;
        e.op = e.conditional ? ir::Opcode::Beq : ir::Opcode::Call;
        e.taken = !e.conditional || (i % 5) != 0;
        e.targetKnown = (i % 7) != 0;
        e.targetAddr = e.pc + 0x40 + (i % 11);
        e.fallthroughAddr = e.pc + 1;
        e.nextPc = e.taken ? e.targetAddr : e.fallthroughAddr;
        events.push_back(e);
    }
    return events;
}

void
expectSameEvent(const BranchEvent &a, const BranchEvent &b,
                std::size_t i)
{
    EXPECT_EQ(a.pc, b.pc) << "event " << i;
    EXPECT_EQ(a.nextPc, b.nextPc) << "event " << i;
    EXPECT_EQ(a.targetAddr, b.targetAddr) << "event " << i;
    EXPECT_EQ(a.fallthroughAddr, b.fallthroughAddr) << "event " << i;
    EXPECT_EQ(a.op, b.op) << "event " << i;
    EXPECT_EQ(a.conditional, b.conditional) << "event " << i;
    EXPECT_EQ(a.taken, b.taken) << "event " << i;
    EXPECT_EQ(a.targetKnown, b.targetKnown) << "event " << i;
}

TEST(TraceView, BorrowedCursorWalksEveryEventInOrder)
{
    const std::vector<BranchEvent> events = syntheticEvents(1219);
    const SoaTrace stream = SoaTrace::fromEvents(events);
    const TraceView view = TraceView::of(stream);
    EXPECT_FALSE(view.isMapped());
    EXPECT_EQ(view.size(), events.size());
    EXPECT_EQ(view.maxPc(), stream.maxPc());

    TraceView::Cursor cursor = view.cursor();
    TraceBlock block;
    std::size_t seen = 0;
    while (cursor.next(block)) {
        EXPECT_EQ(block.base, seen);
        for (std::size_t i = 0; i < block.count; ++i)
            expectSameEvent(block.event(i), events[seen + i],
                            seen + i);
        seen += block.count;
    }
    EXPECT_EQ(seen, events.size());
}

TEST(TraceView, MaterializeRoundTripsTheBorrowedView)
{
    const std::vector<BranchEvent> events = syntheticEvents(700);
    const SoaTrace stream = SoaTrace::fromEvents(events);
    const SoaTrace copy = materializeView(TraceView::of(stream));
    ASSERT_EQ(copy.size(), stream.size());
    EXPECT_EQ(copy.maxPc(), stream.maxPc());
    for (std::size_t i = 0; i < copy.size(); ++i)
        expectSameEvent(copy.event(i), events[i], i);
}

TEST(TraceView, EmptyViewYieldsNoBlocks)
{
    const SoaTrace stream;
    const TraceView view = TraceView::of(stream);
    EXPECT_TRUE(view.empty());
    TraceView::Cursor cursor = view.cursor();
    TraceBlock block;
    EXPECT_FALSE(cursor.next(block));
}

// ---------------------------------------------------------------------
// The warm-path differential: mapped views vs owning decode, across
// the whole suite and every kernel.
// ---------------------------------------------------------------------

bool
sameStats(const predict::PredictorStats &a,
          const predict::PredictorStats &b)
{
    const auto same = [](const Ratio &x, const Ratio &y) {
        return x.hits() == y.hits() && x.total() == y.total();
    };
    return same(a.accuracy, b.accuracy) &&
           same(a.conditionalAccuracy, b.conditionalAccuracy) &&
           same(a.unconditionalAccuracy, b.unconditionalAccuracy) &&
           same(a.predictedTaken, b.predictedTaken);
}

void
expectSameResult(const predict::KernelReplayResult &mapped,
                 const predict::KernelReplayResult &owned,
                 const std::string &what)
{
    EXPECT_TRUE(sameStats(mapped.stats, owned.stats)) << what;
    EXPECT_EQ(mapped.missRatio, owned.missRatio) << what;
    EXPECT_EQ(mapped.hasMissRatio, owned.hasMissRatio) << what;
}

/** Walk @p view with @p kernel as its only consumer. */
predict::KernelReplayResult
walked(predict::ReplayKernel &kernel, const TraceView &view)
{
    predict::walkStream(view, {&kernel}, {});
    return kernel.result();
}

TEST(TraceViewDifferential, MappedReplayIsBitIdenticalAcrossSuite)
{
    const std::string dir =
        ::testing::TempDir() + "blab_view_differential";
    std::filesystem::remove_all(dir);
    core::ExperimentConfig config;
    config.runsOverride = 1;
    config.traceCacheDir = dir;

    for (const workloads::Workload *workload :
         workloads::allWorkloads()) {
        SCOPED_TRACE(workload->name());
        // Cold record populates the cache; the second record must be
        // a zero-copy mapped hit.
        core::RecordedWorkload cold =
            core::recordWorkload(*workload, config);
        ASSERT_FALSE(cold.cacheHit);
        core::RecordedWorkload warm =
            core::recordWorkload(*workload, config);
        ASSERT_TRUE(warm.cacheHit);
        ASSERT_NE(warm.mapped, nullptr);
        EXPECT_EQ(warm.stream.size(), 0u);

        const TraceView mapped = warm.traceView();
        const TraceView owned = cold.traceView();
        EXPECT_TRUE(mapped.isMapped());
        EXPECT_FALSE(owned.isMapped());
        ASSERT_EQ(mapped.size(), owned.size());

        // The decoded events themselves are bit-identical.
        const SoaTrace decoded = materializeView(mapped);
        ASSERT_EQ(decoded.size(), cold.stream.size());
        for (std::size_t i = 0; i < decoded.size(); ++i)
            expectSameEvent(decoded.event(i), cold.stream.event(i),
                            i);

        // Every kernel sees the same stream: identical results (and
        // therefore identical internal tables) in both modes.
        const predict::BufferConfig btb =
            predict::kernelIndexedConfig(config.btb);
        {
            predict::SbtbKernel a(btb);
            predict::SbtbKernel b(btb);
            expectSameResult(walked(a, mapped), walked(b, owned), "sbtb");
        }
        {
            predict::CbtbKernel a(btb, config.counter);
            predict::CbtbKernel b(btb, config.counter);
            expectSameResult(walked(a, mapped), walked(b, owned), "cbtb");
        }
        for (const predict::StaticKind kind :
             {predict::StaticKind::AlwaysTaken,
              predict::StaticKind::AlwaysNotTaken,
              predict::StaticKind::BackwardTaken,
              predict::StaticKind::OpcodeBias}) {
            predict::StaticKernel a(kind);
            predict::StaticKernel b(kind);
            expectSameResult(walked(a, mapped), walked(b, owned), "static");
        }
        {
            predict::FsKernel a(cold.likelyMap, owned.maxPc());
            predict::FsKernel b(cold.likelyMap, owned.maxPc());
            expectSameResult(walked(a, mapped), walked(b, owned), "fs");
        }
        {
            predict::GshareKernel a(predict::GshareConfig{});
            predict::GshareKernel b(predict::GshareConfig{});
            expectSameResult(walked(a, mapped), walked(b, owned), "gshare");
        }
    }
    std::filesystem::remove_all(dir);
}

TEST(TraceViewDifferential, MappedViewSurvivesEntryEviction)
{
    // The mapping pins the pages: replay keeps working even after
    // the cache file disappears from under the view.
    const std::string dir = ::testing::TempDir() + "blab_view_unlink";
    std::filesystem::remove_all(dir);
    core::ExperimentConfig config;
    config.runsOverride = 1;
    config.traceCacheDir = dir;
    const workloads::Workload &workload =
        *workloads::allWorkloads().front();

    core::RecordedWorkload cold =
        core::recordWorkload(workload, config);
    core::RecordedWorkload warm =
        core::recordWorkload(workload, config);
    ASSERT_NE(warm.mapped, nullptr);

    std::filesystem::remove_all(dir); // evict everything

    const SoaTrace decoded = materializeView(warm.traceView());
    ASSERT_EQ(decoded.size(), cold.stream.size());
    for (std::size_t i = 0; i < decoded.size(); ++i)
        expectSameEvent(decoded.event(i), cold.stream.event(i), i);
}

} // namespace
} // namespace branchlab::trace

/**
 * @file
 * The one stream walk. See predict/replay_kernels.hh.
 */

#include "predict/replay_kernels.hh"

#include <chrono>

#include "obs/metrics.hh"

namespace branchlab::predict
{

namespace
{

/**
 * Strip-mine width of the walk: events are materialised into a block
 * this long, then each kernel runs a tight loop over the block while
 * it is still L1-resident, so N kernels share one pass of column
 * decoding instead of paying it N times. 512 events x ~40 bytes keeps
 * the block around 20 KiB.
 */
constexpr std::size_t kKernelBlockEvents = 512;

// Kernel strip-mining and the view cursor share one block width, so a
// cursor block maps 1:1 onto a kernel block.
static_assert(kKernelBlockEvents == trace::kTraceBlockEvents);

/** Materialise a cursor block into kernel events: the columns plus
 *  the precomputed makeQuery() staticTarget. */
void
fillKernelBlock(const trace::TraceBlock &block, KernelEvent *events)
{
    for (std::size_t i = 0; i < block.count; ++i) {
        KernelEvent &e = events[i];
        e.pc = block.pc[i];
        e.nextPc = block.nextPc[i];
        e.targetAddr = block.targetAddr[i];
        e.op = block.opcode(i);
        e.conditional = block.conditional(i);
        e.taken = block.taken(i);
        // makeQuery(): only conditionals, direct jumps, and direct
        // calls carry a statically encoded target.
        const bool has_static = e.conditional ||
                                e.op == ir::Opcode::Jmp ||
                                e.op == ir::Opcode::Call;
        e.staticTarget = has_static ? e.targetAddr : ir::kNoAddr;
    }
}

} // namespace

void
walkStream(const trace::TraceView &view,
           const std::vector<ReplayKernel *> &kernels,
           const std::vector<trace::TraceSink *> &sinks)
{
    using Clock = std::chrono::steady_clock;
    std::array<KernelEvent, kKernelBlockEvents> events;
    trace::TraceView::Cursor cursor = view.cursor();
    trace::TraceBlock block;
    // The sinks' share of the walk, clocked once per block: it splits
    // a fold riding the walk from the kernels' time.
    const bool time_sinks = !sinks.empty() && obs::enabled();
    Clock::duration sink_time{};
    while (cursor.next(block)) {
        // Kernels: one materialisation per block, then each kernel's
        // monomorphized loop over it while it is L1-resident. The
        // kernels are independent state machines, so block-major
        // order gives each the same event sequence.
        if (!kernels.empty()) {
            fillKernelBlock(block, events.data());
            for (ReplayKernel *kernel : kernels)
                kernel->stepBlock(events.data(), block.count);
        }
        // Sinks: every whole event, materialised once for all sinks.
        if (!sinks.empty()) {
            const Clock::time_point start =
                time_sinks ? Clock::now() : Clock::time_point{};
            for (std::size_t i = 0; i < block.count; ++i) {
                const trace::BranchEvent event = block.event(i);
                for (trace::TraceSink *sink : sinks)
                    sink->onBranch(event);
            }
            if (time_sinks)
                sink_time += Clock::now() - start;
        }
    }
    if (time_sinks) {
        obs::Registry::global()
            .span("engine.replay.sinks")
            .record(static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    sink_time)
                    .count()));
    }
}

} // namespace branchlab::predict

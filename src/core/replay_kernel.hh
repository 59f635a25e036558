/**
 * @file
 * Kernel-dispatched replay: the engine side of the one stream walk
 * (predict::walkStream). Every entry point here maps its specs onto
 * the walk's two consumer kinds and walks the stream once:
 *
 *  - a kernel (predict/replay_kernels.hh) for each spec that has one
 *    on this stream (engine.replay.kernel.specialized);
 *  - a sink -- a PredictionDriver over makePredictor(spec) -- for
 *    each spec that does not (engine.replay.kernel.fallback), plus
 *    any caller sinks riding the same walk (the warm Table 5 profile
 *    fold).
 *
 * The driver path is not an afterthought -- it *is* the reference
 * semantics, and it has one job here: the route for specs without a
 * kernel (streams whose pcs exceed the flat-table bound, custom
 * schemes). Kernels are an optimisation bound by differential tests
 * to produce bit-identical results. CI gates fallback == 0 for the
 * paper's schemes.
 */

#ifndef BRANCHLAB_CORE_REPLAY_KERNEL_HH
#define BRANCHLAB_CORE_REPLAY_KERNEL_HH

#include <memory>
#include <vector>

#include "core/runner.hh"
#include "predict/replay_kernels.hh"

namespace branchlab::core
{

/** Scheme families the replay engine evaluates. */
enum class SchemeKind
{
    Sbtb,
    Cbtb,
    AlwaysTaken,
    AlwaysNotTaken,
    BackwardTaken,
    OpcodeBias,
    ForwardSemantic,
    Gshare,
};

/**
 * A replayable (scheme, config) pair. Only the fields relevant to
 * `kind` are consulted: btb for Sbtb/Cbtb, counter for Cbtb, gshare
 * for Gshare, likely for ForwardSemantic (must outlive the call).
 */
struct KernelSpec
{
    SchemeKind kind = SchemeKind::Sbtb;
    predict::BufferConfig btb{};
    predict::CounterConfig counter{};
    predict::GshareConfig gshare{};
    const predict::LikelyMap *likely = nullptr;
};

/** Build the virtual-dispatch predictor a spec describes (the
 *  fallback route, and the reference half of differential tests). */
std::unique_ptr<predict::BranchPredictor>
makePredictor(const KernelSpec &spec);

/**
 * Replay a stream against several specs in one walk. Each spec gets a
 * kernel when it has one on this stream, else a PredictionDriver
 * sink; @p sinks ride the same walk and see every event in order.
 * Results are in spec order and bit-identical either way.
 */
std::vector<ReplayResult>
replayManyKernel(const trace::TraceView &view,
                 const std::vector<KernelSpec> &specs,
                 const std::vector<trace::TraceSink *> &sinks = {});

inline std::vector<ReplayResult>
replayManyKernel(const trace::SoaTrace &stream,
                 const std::vector<KernelSpec> &specs)
{
    return replayManyKernel(trace::TraceView::of(stream), specs);
}

/** Replay a stream against one spec: replayManyKernel({spec})[0]. */
ReplayResult replayKernel(const trace::TraceView &view,
                          const KernelSpec &spec);

/**
 * Replay both hardware schemes at N sweep grid points in one walk:
 * replayManyKernel over the 2N specs (sbtb0, cbtb0, sbtb1, ...),
 * mapped back into cells (engine.replay.kernel.batch counts the
 * batches whose stream has kernels). Every cell is bit-identical to
 * a standalone replay of its point.
 */
std::vector<predict::BtbBatchCell>
replayBatch(const trace::TraceView &view,
            const std::vector<predict::BtbBatchPoint> &points);

} // namespace branchlab::core

#endif // BRANCHLAB_CORE_REPLAY_KERNEL_HH

/**
 * @file
 * The engine side of the one stream walk: specs to kernels or driver
 * sinks. See core/replay_kernel.hh for the contract;
 * predict/replay_kernels.hh for the kernels and the walk itself.
 */

#include "core/replay_kernel.hh"

#include "obs/metrics.hh"
#include "obs/span.hh"
#include "predict/cbtb.hh"
#include "predict/gshare.hh"
#include "predict/predictor.hh"
#include "predict/sbtb.hh"
#include "predict/static_predictors.hh"
#include "support/logging.hh"

namespace branchlab::core
{

namespace
{

/**
 * The kernel for @p spec on @p view, or null when the spec has none
 * there: the pc-indexed kernels size flat tables by the stream's
 * largest pc, so they only engage while that stays below
 * kMaxKernelPc; the statics need no table and always engage.
 */
std::unique_ptr<predict::ReplayKernel>
makeKernel(const KernelSpec &spec, const trace::TraceView &view)
{
    const bool flat = view.maxPc() < predict::kMaxKernelPc;
    switch (spec.kind) {
      case SchemeKind::Sbtb:
        if (flat)
            return std::make_unique<predict::SbtbKernel>(spec.btb);
        return nullptr;
      case SchemeKind::Cbtb:
        if (flat)
            return std::make_unique<predict::CbtbKernel>(spec.btb,
                                                         spec.counter);
        return nullptr;
      case SchemeKind::AlwaysTaken:
        return std::make_unique<predict::StaticKernel>(
            predict::StaticKind::AlwaysTaken);
      case SchemeKind::AlwaysNotTaken:
        return std::make_unique<predict::StaticKernel>(
            predict::StaticKind::AlwaysNotTaken);
      case SchemeKind::BackwardTaken:
        return std::make_unique<predict::StaticKernel>(
            predict::StaticKind::BackwardTaken);
      case SchemeKind::OpcodeBias:
        return std::make_unique<predict::StaticKernel>(
            predict::StaticKind::OpcodeBias);
      case SchemeKind::ForwardSemantic:
        if (flat && spec.likely != nullptr)
            return std::make_unique<predict::FsKernel>(*spec.likely,
                                                       view.maxPc());
        return nullptr;
      case SchemeKind::Gshare:
        if (flat)
            return std::make_unique<predict::GshareKernel>(spec.gshare);
        return nullptr;
    }
    blab_panic("unreachable scheme kind");
}

ReplayResult
toReplayResult(const predict::KernelReplayResult &kernel)
{
    ReplayResult result;
    result.stats = kernel.stats;
    result.accuracy = result.stats.accuracy.ratio();
    result.missRatio = kernel.missRatio;
    result.hasMissRatio = kernel.hasMissRatio;
    return result;
}

predict::KernelReplayResult
toKernelResult(const ReplayResult &result)
{
    predict::KernelReplayResult out;
    out.stats = result.stats;
    out.missRatio = result.missRatio;
    out.hasMissRatio = result.hasMissRatio;
    return out;
}

} // namespace

std::unique_ptr<predict::BranchPredictor>
makePredictor(const KernelSpec &spec)
{
    switch (spec.kind) {
      case SchemeKind::Sbtb:
        return std::make_unique<predict::SimpleBtb>(spec.btb);
      case SchemeKind::Cbtb:
        return std::make_unique<predict::CounterBtb>(spec.btb,
                                                     spec.counter);
      case SchemeKind::AlwaysTaken:
        return std::make_unique<predict::AlwaysTaken>();
      case SchemeKind::AlwaysNotTaken:
        return std::make_unique<predict::AlwaysNotTaken>();
      case SchemeKind::BackwardTaken:
        return std::make_unique<predict::BackwardTaken>();
      case SchemeKind::OpcodeBias:
        return std::make_unique<predict::OpcodeBias>();
      case SchemeKind::ForwardSemantic:
        blab_assert(spec.likely != nullptr,
                    "ForwardSemantic spec needs a likely map");
        return std::make_unique<predict::ProfilePredictor>(*spec.likely);
      case SchemeKind::Gshare:
        return std::make_unique<predict::GsharePredictor>(spec.gshare);
    }
    blab_panic("unreachable scheme kind");
}

std::vector<ReplayResult>
replayManyKernel(const trace::TraceView &view,
                 const std::vector<KernelSpec> &specs,
                 const std::vector<trace::TraceSink *> &sinks)
{
    const obs::ScopedSpan span("engine.replay");
    noteReplayTelemetry(view.size(), specs.size());

    // One consumer per spec: its kernel when it has one, else a
    // driver over its reference predictor, riding the walk as a sink
    // beside the caller's.
    std::vector<std::unique_ptr<predict::ReplayKernel>> kernels(
        specs.size());
    std::vector<std::unique_ptr<predict::BranchPredictor>> predictors(
        specs.size());
    std::vector<std::unique_ptr<predict::PredictionDriver>> drivers(
        specs.size());
    std::vector<predict::ReplayKernel *> kernel_consumers;
    std::vector<trace::TraceSink *> sink_consumers = sinks;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        kernels[i] = makeKernel(specs[i], view);
        if (kernels[i] != nullptr) {
            kernel_consumers.push_back(kernels[i].get());
            continue;
        }
        predictors[i] = makePredictor(specs[i]);
        drivers[i] =
            std::make_unique<predict::PredictionDriver>(*predictors[i]);
        sink_consumers.push_back(drivers[i].get());
    }
    auto &registry = obs::Registry::global();
    const std::size_t fallback = specs.size() - kernel_consumers.size();
    if (!kernel_consumers.empty())
        registry.counter("engine.replay.kernel.specialized")
            .add(kernel_consumers.size());
    if (fallback > 0)
        registry.counter("engine.replay.kernel.fallback").add(fallback);

    predict::walkStream(view, kernel_consumers, sink_consumers);

    std::vector<ReplayResult> results(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        results[i] = kernels[i] != nullptr
                         ? toReplayResult(kernels[i]->result())
                         : driverResult(*drivers[i], *predictors[i]);
    }
    return results;
}

ReplayResult
replayKernel(const trace::TraceView &view, const KernelSpec &spec)
{
    return replayManyKernel(view, {spec})[0];
}

std::vector<predict::BtbBatchCell>
replayBatch(const trace::TraceView &view,
            const std::vector<predict::BtbBatchPoint> &points)
{
    std::vector<KernelSpec> specs;
    specs.reserve(2 * points.size());
    for (const predict::BtbBatchPoint &point : points) {
        KernelSpec sbtb;
        sbtb.kind = SchemeKind::Sbtb;
        sbtb.btb = point.btb;
        specs.push_back(sbtb);
        KernelSpec cbtb = sbtb;
        cbtb.kind = SchemeKind::Cbtb;
        cbtb.counter = point.counter;
        specs.push_back(cbtb);
    }
    if (view.maxPc() < predict::kMaxKernelPc)
        obs::Registry::global()
            .counter("engine.replay.kernel.batch")
            .add(1);
    const std::vector<ReplayResult> results =
        replayManyKernel(view, specs);
    std::vector<predict::BtbBatchCell> cells(points.size());
    for (std::size_t p = 0; p < points.size(); ++p) {
        cells[p].sbtb = toKernelResult(results[2 * p]);
        cells[p].cbtb = toKernelResult(results[2 * p + 1]);
    }
    return cells;
}

} // namespace branchlab::core

/**
 * @file
 * The gshare replay kernel.
 */

#include "predict/replay_kernels.hh"

namespace branchlab::predict
{

GshareKernel::GshareKernel(const GshareConfig &config)
    : config_(config),
      targets_(kernelIndexedConfig(config.targets))
{
    blab_assert(config_.historyBits >= 1 && config_.historyBits <= 24,
                "history bits out of range");
    mask_ = (1ull << config_.historyBits) - 1;
    // Weakly not-taken start, like the reference.
    counters_.assign(1ull << config_.historyBits, 1);
}

KernelReplayResult
GshareKernel::result() const
{
    KernelReplayResult out;
    out.stats = acc_.toStats();
    return out;
}

} // namespace branchlab::predict

/**
 * @file
 * The experiment runner: builds a workload's program, executes its
 * input suite on the VM, drives every prediction scheme over the
 * branch stream, and applies the Forward Semantic transformation.
 *
 * Methodology follows the paper's section 3: the exact same inputs
 * drive all schemes; the hardware schemes observe the stream online
 * while the Forward Semantic profiles the full suite first and is
 * then measured over the same runs (the paper's profile-equals-
 * measurement setup).
 *
 * The engine records the branch stream in a single VM pass and
 * replays the in-memory stream against every scheme
 * (record-once/replay-many). Because the inputs are deterministic,
 * this is observationally equivalent to the seed engine's two full VM
 * executions -- the replayed stream is bit-identical to what a second
 * pass would emit -- at roughly half the wall-clock cost; the tests
 * keep the two-pass engine as their oracle (tests/two_pass_oracle.hh).
 * runAll() additionally fans workload-level jobs across a thread
 * pool; every benchmark derives its own RNG sub-stream, so results
 * are bit-identical for any job count.
 */

#ifndef BRANCHLAB_CORE_RUNNER_HH
#define BRANCHLAB_CORE_RUNNER_HH

#include <memory>
#include <optional>

#include "core/experiment.hh"
#include "ir/layout.hh"
#include "predict/profile_predictor.hh"
#include "profile/profile.hh"
#include "trace/cache.hh"
#include "trace/event.hh"
#include "trace/soa.hh"
#include "trace/view.hh"
#include "workloads/workload.hh"

namespace branchlab::core
{

/**
 * One workload's recorded branch stream plus everything needed to
 * replay it against arbitrary predictors (ablation benches, tests).
 * The program and layout are owned here because events reference
 * their addresses.
 *
 * The stream arrives in one of two forms: an owning SoaTrace in
 * `stream` (cold records), or a zero-copy mmap'd cache entry in
 * `mapped` with `stream` empty (warm hits). Replay consumers use
 * traceView(), which papers over the difference.
 */
struct RecordedWorkload
{
    std::string name;
    std::unique_ptr<ir::Program> program;
    std::unique_ptr<ir::Layout> layout;
    /** The owning stream in the engine's native SoA columns
     *  (trace/soa.hh). Empty when `mapped` is set. */
    trace::SoaTrace stream;
    /** The zero-copy mapped cache entry (warm hits), else null. */
    std::shared_ptr<const trace::MappedEntry> mapped;
    trace::TraceStats stats;
    /** The Forward Semantic's compiled-in predictions, profiled over
     *  exactly these events. */
    predict::LikelyMap likelyMap;
    /** The record pass's full block/arc profile. Null on a cache hit;
     *  the profile is a pure fold over the events, so consumers can
     *  rebuild it from the stream bit-identically when absent. */
    std::unique_ptr<profile::ProgramProfile> profile;
    /** Profiling runs the stream covers. */
    unsigned runs = 0;
    /** Content hash of everything that determines the stream. */
    std::uint64_t contentHash = 0;
    /** True when the stream came from the persistent trace cache
     *  instead of a VM record pass. */
    bool cacheHit = false;

    /** A non-owning view of the stream, whichever form it is in. */
    trace::TraceView
    traceView() const
    {
        return mapped ? mapped->view() : trace::TraceView::of(stream);
    }

    std::uint64_t
    eventCount() const
    {
        return mapped ? mapped->eventCount : stream.size();
    }

    /** The whole stream as materialised events, walked into a
     *  BranchRecorder (tests, small fixtures; costs a full copy). */
    std::vector<trace::BranchEvent> events() const;
};

/** The deterministic input suite of @p runs runs for @p workload. */
std::vector<workloads::WorkloadInput>
makeInputSuite(const workloads::Workload &workload,
               const ExperimentConfig &config, unsigned runs);

/** Execute every input of a suite on the VM, feeding one sink (and
 *  adding each run's instruction count to @p stats when non-null).
 *  The program is predecoded once and shared by every run. */
void runSuite(const ir::Program &program, const ir::Layout &layout,
              const std::vector<workloads::WorkloadInput> &inputs,
              trace::TraceSink &sink, trace::TraceStats *stats,
              std::uint64_t max_instructions);

/**
 * Content hash of everything that determines a workload's recorded
 * stream: the program IR (printed with layout addresses), the data
 * segment, the layout footprint, the generated input suite, and the
 * VM configuration (seed, run count, instruction limit), plus a
 * schema version covering the event semantics themselves.
 */
std::uint64_t
workloadContentHash(const workloads::Workload &workload,
                    const ExperimentConfig &config = ExperimentConfig{});

/**
 * Execute a workload's input suite once, recording the stream.
 *
 * When a trace cache is configured (config.traceCacheDir or the
 * BRANCHLAB_TRACE_CACHE environment variable) the cache is consulted
 * first: a hit reconstructs the RecordedWorkload bit-identically
 * without running the VM; a miss records and then persists the entry.
 *
 * A caller that already holds workloadContentHash(workload, config)
 * passes it as @p contentHash and the record does not hash again
 * (the sweep hashes every workload before it records any). Debug
 * builds check it against the hash the record computes.
 */
RecordedWorkload
recordWorkload(const workloads::Workload &workload,
               const ExperimentConfig &config = ExperimentConfig{},
               std::optional<std::uint64_t> contentHash = std::nullopt);

/**
 * The trace-cache entry that describes @p recorded: its hash, runs,
 * stats and pc-sorted likely map, plus its stream moved out of
 * @p recorded -- the owning SoaTrace of a cold record, or the mapping
 * of a warm hit, whose validated bytes writeEntryFile copies
 * verbatim. The cache stores exactly this and `branchlab record -o`
 * writes exactly this, so the two produce the same bytes. A caller
 * that still needs the stream moves it back.
 */
trace::CachedWorkload takeCacheEntry(RecordedWorkload &recorded);

/** A persisted likely map (as carried by a cache entry) in the
 *  predictors' form. */
predict::LikelyMap
cachedToLikely(const std::vector<trace::CachedLikely> &entries);

/**
 * The workload's full block/arc profile: the record pass's when
 * present, else rebuilt into @p storage by folding the recorded
 * stream back through the profiler. ProgramProfile is a pure fold
 * over branch events plus noteRun() calls, so the rebuilt profile is
 * bit-identical to the online one -- on warm cache paths this
 * recovers everything the FS transform needs without a VM pass. The
 * sweep's prepare and point paths call it; the runner instead folds
 * a warm hit's profile as a sink of its scheme walk. The fold runs
 * under an `engine.profile` span.
 */
const profile::ProgramProfile &
resolveProfile(const RecordedWorkload &recorded,
               std::optional<profile::ProgramProfile> &storage);

/** Everything one replay of a stream measures for one scheme. */
struct ReplayResult
{
    /** Full accuracy breakdown (the driver's counters). */
    predict::PredictorStats stats;
    /** The paper's A: probability a prediction was correct. */
    double accuracy = 0.0;
    /** The paper's rho over this replay (BTB schemes only). */
    double missRatio = 0.0;
    bool hasMissRatio = false;
};

/** Bump the shared replay telemetry counters (engine.replays,
 *  engine.replay.events, and -- when @p scheme_count is nonzero --
 *  engine.replay.schemes). Every replay entry point funnels through
 *  this one helper so the counter set cannot drift between paths. */
void noteReplayTelemetry(std::size_t event_count,
                         std::size_t scheme_count);

/** What a finished PredictionDriver over @p predictor measured. */
ReplayResult driverResult(const predict::PredictionDriver &driver,
                          const predict::BranchPredictor &predictor);

/**
 * Replay a stream against a predictor: replayMany(view, {&p})[0], a
 * walk with one PredictionDriver sink. This virtual-dispatch path is
 * the reference the kernels (core/replay_kernel.hh) are bound to by
 * differential tests, and the route for predictors no KernelSpec
 * describes (e.g. FlushingPredictor in `branchlab replay`).
 */
ReplayResult replay(const trace::TraceView &view,
                    predict::BranchPredictor &predictor);

/** Replay a stream against several independent predictors in one
 *  walk, one driver sink each (the schemes never interact, so the
 *  results equal sequential replay() calls). Results are in predictor
 *  order. */
std::vector<ReplayResult>
replayMany(const trace::TraceView &view,
           const std::vector<predict::BranchPredictor *> &predictors);

inline ReplayResult
replay(const RecordedWorkload &recorded,
       predict::BranchPredictor &predictor)
{
    return replay(recorded.traceView(), predictor);
}

/** Replay recorded events against a predictor; returns its accuracy.
 *  Prefer replay() when the miss ratio is also needed. */
double replayAccuracy(const RecordedWorkload &recorded,
                      predict::BranchPredictor &predictor);

class ExperimentRunner
{
  public:
    explicit ExperimentRunner(ExperimentConfig config = ExperimentConfig{})
        : config_(config)
    {}

    /** Run one benchmark end to end. */
    BenchmarkResult runBenchmark(const workloads::Workload &workload) const;

    /** Run the full ten-benchmark suite (Table 1 order), fanning the
     *  benchmarks across config().jobs worker threads. */
    std::vector<BenchmarkResult> runAll() const;

    const ExperimentConfig &config() const { return config_; }

  private:
    ExperimentConfig config_;
};

} // namespace branchlab::core

#endif // BRANCHLAB_CORE_RUNNER_HH

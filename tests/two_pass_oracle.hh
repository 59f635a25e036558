/**
 * @file
 * The two-pass seed engine, kept as the tests' oracle for the
 * record-once/replay-many engine: it executes a workload's input suite
 * twice on the VM -- once feeding the hardware schemes, the static
 * schemes, the profile and the statistics online, once feeding the
 * Forward Semantic built from that profile -- exactly as the paper's
 * methodology describes. ExperimentRunner::runBenchmark must agree
 * with it bit for bit.
 */

#ifndef BRANCHLAB_TESTS_TWO_PASS_ORACLE_HH
#define BRANCHLAB_TESTS_TWO_PASS_ORACLE_HH

#include "core/runner.hh"
#include "ir/verifier.hh"
#include "predict/cbtb.hh"
#include "predict/profile_predictor.hh"
#include "predict/sbtb.hh"
#include "predict/static_predictors.hh"
#include "profile/forward_slots.hh"
#include "profile/profile.hh"
#include "trace/record.hh"

namespace branchlab::test
{

inline core::BenchmarkResult
runTwoPassBenchmark(const core::ExperimentConfig &config,
                    const workloads::Workload &workload)
{
    core::BenchmarkResult result;
    result.name = workload.name();

    const ir::Program program = workload.buildProgram();
    ir::verifyProgramOrDie(program);
    const ir::Layout layout(program);
    result.staticSize = program.staticSize();

    const unsigned runs = config.runsOverride != 0
                              ? config.runsOverride
                              : workload.defaultRuns();
    result.runs = runs;
    const std::vector<workloads::WorkloadInput> inputs =
        core::makeInputSuite(workload, config, runs);

    // ---- Pass 1: hardware schemes, statics, profile, statistics. ----
    predict::SimpleBtb sbtb(config.btb);
    predict::CounterBtb cbtb(config.btb, config.counter);
    predict::PredictionDriver sbtb_driver(sbtb);
    predict::PredictionDriver cbtb_driver(cbtb);

    predict::AlwaysTaken always_taken;
    predict::AlwaysNotTaken always_not_taken;
    predict::BackwardTaken btfnt;
    predict::OpcodeBias opcode_bias;
    std::vector<predict::PredictionDriver> static_drivers;
    static_drivers.reserve(4);
    if (config.runStaticSchemes) {
        static_drivers.emplace_back(always_taken);
        static_drivers.emplace_back(always_not_taken);
        static_drivers.emplace_back(btfnt);
        static_drivers.emplace_back(opcode_bias);
    }

    profile::ProgramProfile profile(program, layout);

    trace::FanoutSink fanout;
    fanout.addSink(&sbtb_driver);
    fanout.addSink(&cbtb_driver);
    for (predict::PredictionDriver &driver : static_drivers)
        fanout.addSink(&driver);
    fanout.addSink(&profile);
    fanout.addSink(&result.stats);

    for (unsigned r = 0; r < runs; ++r)
        profile.noteRun();
    core::runSuite(program, layout, inputs, fanout, &result.stats,
                   config.maxInstructionsPerRun);

    result.sbtb = core::SchemeResult{
        "SBTB", sbtb_driver.stats().accuracy.ratio(), sbtb.missRatio(),
        true};
    result.cbtb = core::SchemeResult{
        "CBTB", cbtb_driver.stats().accuracy.ratio(), cbtb.missRatio(),
        true};
    if (config.runStaticSchemes) {
        const char *names[] = {"always-taken", "always-not-taken",
                               "btfnt", "opcode-bias"};
        for (std::size_t i = 0; i < static_drivers.size(); ++i) {
            result.staticSchemes.push_back(core::SchemeResult{
                names[i], static_drivers[i].stats().accuracy.ratio(),
                0.0, false});
        }
    }

    // ---- Pass 2: the Forward Semantic over the same runs. ----
    predict::ProfilePredictor fs(profile.buildLikelyMap());
    predict::PredictionDriver fs_driver(fs);
    core::runSuite(program, layout, inputs, fs_driver, nullptr,
                   config.maxInstructionsPerRun);
    result.fs = core::SchemeResult{
        "FS", fs_driver.stats().accuracy.ratio(), 0.0, false};

    if (config.runCodeSize) {
        for (unsigned slots : config.codeSizeSlots) {
            result.codeIncrease[slots] = profile::codeIncreaseFor(
                profile, slots, config.traceThreshold);
        }
    }
    return result;
}

} // namespace branchlab::test

#endif // BRANCHLAB_TESTS_TWO_PASS_ORACLE_HH

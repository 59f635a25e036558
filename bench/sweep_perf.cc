/**
 * @file
 * Performance harness for the design-space sweep engine.
 *
 * Runs a 180-point grid (BTB entries x associativity x replacement
 * policy x counter threshold x FS slots) over a three-workload subset
 * in three phases --
 *
 *   1. cold:    empty journal and trace cache; every point replays
 *               and every workload records exactly once;
 *   2. resume:  the same sweep against the populated journal; every
 *               point must load (mapped from journal segments:
 *               sweep.journal.bytes_mapped must move), nothing may
 *               replay or record;
 *   3. partial: a fresh journal capped at half the grid, then the
 *               uncapped rerun that finishes it -- the rerun must
 *               resume exactly the capped half and evaluate the rest,
 *               and its grid must be bit-identical to the cold run's;
 *   4. journal10k: a synthetic 10,000-point journal stored through
 *               SweepJournal, then re-opened cold -- times the mmap
 *               resume path at a scale the real grid cannot reach in
 *               CI
 *
 * -- asserting the record-once invariant with the vm.runs telemetry
 * counter and the trace-cache hit/miss counters, and checking the
 * resumed grids cell-for-cell against the cold run. Everything is
 * emitted machine-readable to BENCH_sweep.json (points/s per phase,
 * resume_s, journal byte sizes, resume-hit statistics, record/cache
 * counters) so the sweep's perf trajectory is tracked PR over PR.
 *
 *   sweep_perf [--runs N] [--jobs N] [--out FILE]
 */

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include <unistd.h>

#include <chrono>

#include "bench_common.hh"

#include "core/sweep.hh"
#include "core/sweep_journal.hh"
#include "obs/metrics.hh"
#include "trace/cache.hh"

namespace
{

using namespace branchlab;

std::string
makeTempDir(const std::string &stem)
{
    const std::string path =
        (std::filesystem::temp_directory_path() /
         (stem + "-" + std::to_string(static_cast<long>(::getpid()))))
            .string();
    std::filesystem::create_directories(path);
    return path;
}

core::SweepConfig
benchSweep(unsigned runs, unsigned jobs)
{
    core::SweepConfig config;
    config.axes.btbEntries = {16, 32, 64, 128, 256};
    config.axes.btbAssociativity = {0, 2, 4};
    config.axes.btbPolicies = {predict::ReplacementPolicy::Lru,
                               predict::ReplacementPolicy::Fifo,
                               predict::ReplacementPolicy::Random};
    config.axes.counterThresholds = {1, 2};
    config.axes.fsSlots = {1, 2};
    config.workloads = {"tee", "wc", "cmp"};
    config.base.runsOverride = runs;
    config.base.jobs = jobs;
    return config;
}

/** Total bytes of the journal's sealed segments. */
std::uint64_t
journalBytes(const std::string &dir)
{
    std::uint64_t total = 0;
    std::error_code ec;
    for (std::filesystem::recursive_directory_iterator
             it(dir, ec),
         end;
         !ec && it != end; it.increment(ec)) {
        std::error_code file_ec;
        if (it->path().extension() == ".blsg" &&
            it->is_regular_file(file_ec) && !file_ec)
            total += it->file_size(file_ec);
    }
    return total;
}

/** Deterministic synthetic cells for the 10k-point journal phase. */
std::vector<core::SweepCell>
syntheticCells(std::uint64_t key)
{
    std::vector<core::SweepCell> cells(3);
    for (std::size_t w = 0; w < cells.size(); ++w) {
        const double base =
            static_cast<double>((key + w) % 997) / 997.0;
        cells[w] = {base, 1.0 - base, base * 0.5, 1.0 - base * 0.5,
                    base * 0.25, base * 0.125};
    }
    return cells;
}

std::size_t
countGridMismatches(const core::SweepResult &a,
                    const core::SweepResult &b)
{
    std::size_t mismatches = 0;
    if (a.points.size() != b.points.size()) {
        std::cerr << "  MISMATCH: point count " << a.points.size()
                  << " vs " << b.points.size() << "\n";
        return 1;
    }
    for (std::size_t i = 0; i < a.points.size(); ++i) {
        if (a.points[i].point.index != b.points[i].point.index ||
            a.points[i].cells != b.points[i].cells) {
            ++mismatches;
            std::cerr << "  MISMATCH: point "
                      << a.points[i].point.label() << "\n";
        }
    }
    return mismatches;
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned runs = 2;
    unsigned jobs = 0;
    std::string out = "BENCH_sweep.json";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto need_value = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "missing value for " << arg << "\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--runs")
            runs = static_cast<unsigned>(std::stoul(need_value()));
        else if (arg == "--jobs")
            jobs = static_cast<unsigned>(std::stoul(need_value()));
        else if (arg == "--out")
            out = need_value();
        else {
            std::cerr << "usage: sweep_perf [--runs N] [--jobs N] "
                         "[--out FILE]\n";
            return 2;
        }
    }

    const std::string journal_dir = makeTempDir("blab-sweep-journal");
    const std::string cache_dir = makeTempDir("blab-sweep-cache");
    core::SweepConfig config = benchSweep(runs, jobs);
    config.journalDir = journal_dir;
    config.base.traceCacheDir = cache_dir;

    obs::Counter &vm_runs = obs::Registry::global().counter("vm.runs");
    std::size_t failures = 0;
    const auto expect = [&failures](bool ok, const std::string &what) {
        if (!ok) {
            ++failures;
            std::cerr << "  FAIL: " << what << "\n";
        }
    };

    // ---- Phase 1: cold (records once, evaluates every point). ----
    std::cerr << "cold sweep...\n";
    const std::uint64_t vm_runs_before = vm_runs.value();
    const trace::TraceCacheCounters cache_before =
        trace::traceCacheCounters();
    const core::SweepResult cold = core::runSweep(config);
    const std::uint64_t cold_vm_runs =
        vm_runs.value() - vm_runs_before;
    const trace::TraceCacheCounters cache_cold =
        trace::traceCacheCounters();

    expect(cold.stats.resumed == 0, "cold sweep resumed points");
    expect(cold.stats.evaluated == cold.points.size(),
           "cold sweep evaluated every point");
    expect(cold.points.size() >= 100, "grid has at least 100 points");
    expect(cold.stats.recordPasses == config.workloads.size(),
           "cold sweep records each workload exactly once");
    // The record-once invariant at the VM level: one record pass per
    // workload, each executing that workload's run count -- no matter
    // how many grid points replayed the stream.
    expect(cold_vm_runs ==
               static_cast<std::uint64_t>(runs) *
                   config.workloads.size(),
           "vm.runs shows one record pass per workload");
    expect(cache_cold.stores - cache_before.stores ==
               config.workloads.size(),
           "cold sweep stored each workload's trace");

    const std::uint64_t cold_journal_bytes =
        journalBytes(journal_dir);

    // ---- Phase 2: full resume (no replays, no records; every point
    // served out of the mapped journal segments). ----
    std::cerr << "resumed sweep...\n";
    obs::Counter &journal_mapped = obs::Registry::global().counter(
        "sweep.journal.bytes_mapped");
    const std::uint64_t mapped_before = journal_mapped.value();
    const core::SweepResult resumed = core::runSweep(config);
    const std::uint64_t resume_bytes_mapped =
        journal_mapped.value() - mapped_before;
    expect(resumed.stats.evaluated == 0,
           "resumed sweep re-evaluated points");
    expect(resumed.stats.resumed == cold.points.size(),
           "resumed sweep loaded every point from the journal");
    expect(resumed.stats.traceCacheHits == config.workloads.size(),
           "resumed sweep hit the trace cache for every workload");
    expect(resume_bytes_mapped > 0,
           "resumed sweep mapped journal segments "
           "(sweep.journal.bytes_mapped)");
    expect(countGridMismatches(cold, resumed) == 0,
           "resumed grid bit-identical to cold grid");

    // ---- Phase 3: capped run + finishing rerun. ----
    std::cerr << "partial sweep (kill-and-resume)...\n";
    const std::string partial_dir =
        makeTempDir("blab-sweep-journal-partial");
    core::SweepConfig partial_config = config;
    partial_config.journalDir = partial_dir;
    partial_config.maxPoints = cold.points.size() / 2;
    const core::SweepResult partial = core::runSweep(partial_config);
    expect(partial.stats.evaluated == partial_config.maxPoints,
           "capped sweep stopped at the cap");

    partial_config.maxPoints = 0;
    const core::SweepResult finished = core::runSweep(partial_config);
    expect(finished.stats.resumed == partial.stats.evaluated,
           "finishing rerun resumed exactly the capped half");
    expect(finished.stats.evaluated ==
               cold.points.size() - partial.stats.evaluated,
           "finishing rerun evaluated exactly the remainder");
    expect(countGridMismatches(cold, finished) == 0,
           "finished grid bit-identical to cold grid");

    // ---- Phase 4: 10k-point journal resume. The real grid stays
    // small for CI wall-time, so scale is exercised synthetically:
    // store 10,000 points through the journal, then time a cold
    // open()+load of every key -- the mmap'd resume path end to end.
    // ----
    std::cerr << "10k-point journal resume...\n";
    constexpr std::size_t k10kPoints = 10000;
    const std::string big_dir = makeTempDir("blab-sweep-journal-10k");
    {
        core::SweepJournal writer(big_dir);
        for (std::size_t i = 0; i < k10kPoints; ++i) {
            const std::uint64_t key =
                0x9e3779b97f4a7c15ULL * (i + 1);
            writer.store(key, syntheticCells(key));
        }
        writer.flush();
    }
    const std::uint64_t big_journal_bytes = journalBytes(big_dir);
    double resume_10k_s = 0.0;
    std::size_t big_loaded = 0;
    {
        const auto begin = std::chrono::steady_clock::now();
        core::SweepJournal reader(big_dir);
        reader.open();
        std::vector<core::SweepCell> cells;
        for (std::size_t i = 0; i < k10kPoints; ++i) {
            const std::uint64_t key =
                0x9e3779b97f4a7c15ULL * (i + 1);
            if (reader.load(key, cells) &&
                cells == syntheticCells(key))
                ++big_loaded;
        }
        resume_10k_s = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - begin)
                           .count();
    }
    expect(big_loaded == k10kPoints,
           "10k-point journal resumed every point bit-identically");

    const double cold_pps =
        static_cast<double>(cold.stats.evaluated) /
        cold.stats.elapsedSeconds;
    std::cerr << "cold: " << cold.stats.evaluated << " points in "
              << formatFixed(cold.stats.elapsedSeconds, 3) << " s ("
              << formatFixed(cold_pps, 1) << " points/s), resume in "
              << formatFixed(resumed.stats.elapsedSeconds, 3)
              << " s\n";

    std::ostringstream json;
    json.precision(17);
    json << "{\n";
    json << "  \"schema\": \"branchlab-sweep-perf-v1\",\n";
    json << "  \"grid_points\": " << cold.points.size() << ",\n";
    json << "  \"workloads\": " << config.workloads.size() << ",\n";
    json << "  \"runs_per_workload\": " << runs << ",\n";
    json << "  \"jobs\": " << resolveJobs(jobs) << ",\n";
    json << "  \"cold\": {\"seconds\": "
         << cold.stats.elapsedSeconds
         << ", \"points_per_second\": " << cold_pps
         << ", \"record_passes\": " << cold.stats.recordPasses
         << ", \"vm_runs\": " << cold_vm_runs << "},\n";
    json << "  \"resume\": {\"seconds\": "
         << resumed.stats.elapsedSeconds
         << ", \"points_resumed\": " << resumed.stats.resumed
         << ", \"points_evaluated\": " << resumed.stats.evaluated
         << ", \"trace_cache_hits\": "
         << resumed.stats.traceCacheHits
         << ", \"bytes_mapped\": " << resume_bytes_mapped << "},\n";
    json << "  \"resume_s\": " << resumed.stats.elapsedSeconds
         << ",\n";
    json << "  \"partial\": {\"capped_evaluated\": "
         << partial.stats.evaluated
         << ", \"rerun_resumed\": " << finished.stats.resumed
         << ", \"rerun_evaluated\": " << finished.stats.evaluated
         << "},\n";
    json << "  \"journal\": {\"bytes\": " << cold_journal_bytes
         << ", \"resume_10k_points\": " << k10kPoints
         << ", \"resume_10k_s\": " << resume_10k_s
         << ", \"bytes_10k\": " << big_journal_bytes << "},\n";
    json << "  \"failures\": " << failures << "\n";
    json << "}\n";
    std::ofstream file(out, std::ios::trunc);
    file << json.str();
    std::cerr << "wrote " << out << "\n";

    std::error_code ec;
    std::filesystem::remove_all(journal_dir, ec);
    std::filesystem::remove_all(partial_dir, ec);
    std::filesystem::remove_all(big_dir, ec);
    std::filesystem::remove_all(cache_dir, ec);

    if (failures != 0) {
        std::cerr << failures << " check(s) failed\n";
        return 1;
    }
    return 0;
}

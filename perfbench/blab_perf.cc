/**
 * @file
 * The BranchLab benchmark: one workload, one seeded run, one JSON
 * result line on stdout.
 *
 *   blab_perf --workload NAME --seed N --seconds S --trace 0|1
 *
 * Workloads (perfbench/NOTES.md says why each exists and which layer
 * metric should move which end-to-end metric):
 *
 *   tables     the ten programs' Tables 1-5 at jobs = 1, two warm
 *              computations against a trace cache filled in set-up for
 *              every cold one against an empty cache
 *   sweep      runSweep (jobs = 2) over a 128-point grid: a cold pass
 *              into a fresh journal, then the same grid resumed
 *   serve_mix  an in-process branchlabd (2 workers, the process on one
 *              CPU) driven by a seeded open-loop schedule: ~95%
 *              journalled hits, ~5% misses on fresh design points at a
 *              fixed cadence
 *
 * --trace 0 runs with telemetry off and reports the end-to-end
 * metrics. --trace 1 alternates traced and untraced operations, reads
 * the library's obs spans and counters over the traced ones, times
 * the layers that have no span from outside with probes, prints a
 * per-layer table to stderr and reports the per-layer metrics.
 *
 * Every operation's outputs are checked against a reference computed
 * outside the timed window; a wrong or missing output is a failed
 * operation. All paths are relative to the working directory, which
 * must be an empty scratch directory.
 */

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sched.h>
#include <unistd.h>

#include "core/replay_kernel.hh"
#include "core/runner.hh"
#include "core/sweep.hh"
#include "core/sweep_journal.hh"
#include "core/tables.hh"
#include "obs/metrics.hh"
#include "predict/cbtb.hh"
#include "predict/profile_predictor.hh"
#include "predict/sbtb.hh"
#include "predict/static_predictors.hh"
#include "profile/forward_slots.hh"
#include "profile/fs_opt.hh"
#include "profile/profile.hh"
#include "serve/client.hh"
#include "serve/daemon.hh"
#include "serve/protocol.hh"
#include "support/logging.hh"
#include "support/random.hh"
#include "trace/cache.hh"
#include "trace/record.hh"
#include "trace/view.hh"
#include "vm/machine.hh"
#include "vm/predecode.hh"
#include "workloads/workload.hh"

#ifndef BLAB_PERF_BUILD_TYPE
#define BLAB_PERF_BUILD_TYPE "unknown"
#endif

namespace
{

using namespace branchlab;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

/** Set-ups per run; setup_s is their median. */
constexpr int kSetups = 3;
/** Branch events the ten programs record at a typical seed. The seed
 *  sets every program's inputs, so a suite records 11.0M-13.4M events
 *  depending on it. Tables and sweep times are scaled to this much work,
 *  or a seed's input sizes would move them by a tenth either way. */
constexpr double kRefEvents = 12e6;
/** Worker counts: tables single-threaded as `branchlab tables --jobs 1`
 *  runs, the sweep and the daemon on two workers each. */
constexpr unsigned kTablesJobs = 1;
constexpr unsigned kSweepJobs = 2;
constexpr unsigned kServeWorkers = 2;

double
since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] +
           (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double
median(const std::vector<double> &values)
{
    return quantile(values, 0.5);
}

double
mean(const std::vector<double> &values)
{
    double sum = 0;
    for (const double value : values)
        sum += value;
    return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

/** Arithmetic mean over groups of each group's median. Used where one
 *  run's samples come from programs whose costs differ many times
 *  over: a plain median would sit on the boundary between two
 *  programs' clusters and jump between them from run to run. The
 *  arithmetic mean weights each program by its cost, so a fixed
 *  per-sample cost that does not scale with the work (an fsync) is a
 *  small share of it. */
double
meanOfMedians(const std::vector<std::vector<double>> &groups)
{
    double sum = 0;
    std::size_t count = 0;
    for (const std::vector<double> &group : groups) {
        if (group.empty())
            continue;
        sum += median(group);
        ++count;
    }
    return count ? sum / static_cast<double>(count) : 0.0;
}

bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) ==
           std::bit_cast<std::uint64_t>(b);
}

/** A /proc/self/status field's leading number (kB for Vm* fields). */
double
procStatus(const char *field)
{
    std::ifstream status("/proc/self/status");
    std::string line;
    const std::string key = std::string(field) + ":";
    while (std::getline(status, line)) {
        if (line.rfind(key, 0) == 0)
            return std::strtod(line.c_str() + key.size(), nullptr);
    }
    return 0.0;
}

/** Restart the kernel's peak-RSS count from the current RSS, so the
 *  peak read at the window's end covers the measured operations and
 *  not the set-up before them. */
void
resetPeakRss()
{
    std::ofstream("/proc/self/clear_refs") << "5";
}

double
peakRssMb()
{
    return procStatus("VmHWM") / 1024.0;
}

std::string
freshDir(const std::string &path)
{
    fs::remove_all(path);
    fs::create_directories(path);
    return path;
}

std::uint64_t
dirBytes(const std::string &path)
{
    std::uint64_t total = 0;
    std::error_code ec;
    for (const auto &entry : fs::recursive_directory_iterator(path, ec)) {
        if (entry.is_regular_file(ec))
            total += entry.file_size(ec);
    }
    return total;
}

std::string
num(double value)
{
    std::ostringstream os;
    os.precision(17);
    os << value;
    return os.str();
}

const std::vector<const workloads::Workload *> &
programs()
{
    return workloads::allWorkloads();
}

// ---------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------

/** The run's outcome: operation counts plus named metrics in order. */
struct Report
{
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics;

    /** Count one operation; a false @p ok counts it failed. */
    void
    check(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            std::cerr << "blab_perf: FAIL: " << what << "\n";
        }
    }

    void
    metric(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, {value, unit}});
    }

    std::string
    json() const
    {
        std::ostringstream os;
        os.precision(17);
        os << "{\"correct\": " << (failed == 0 ? "true" : "false")
           << ", \"attempted\": " << attempted
           << ", \"failed\": " << failed << ", \"metrics\": {";
        for (std::size_t i = 0; i < metrics.size(); ++i) {
            const double value = std::isfinite(metrics[i].second.first)
                                     ? metrics[i].second.first
                                     : 0.0;
            os << (i ? ", " : "") << "\"" << metrics[i].first
               << "\": {\"value\": " << value << ", \"unit\": \""
               << metrics[i].second.second << "\"}";
        }
        os << "}}";
        return os.str();
    }
};

// ---------------------------------------------------------------------
// Telemetry deltas
// ---------------------------------------------------------------------

/** The registry's spans, counters and histograms at one instant. */
struct Tel
{
    /** name -> (count, total ns) */
    std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> spans;
    std::map<std::string, std::uint64_t> counters;
    /** name -> (count, sum) */
    std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> hists;

    static Tel
    now()
    {
        const obs::Snapshot snap = obs::Registry::global().snapshot();
        Tel tel;
        for (const auto &row : snap.spans)
            tel.spans[row.name] = {row.count, row.totalNs};
        for (const auto &[name, value] : snap.counters)
            tel.counters[name] = value;
        for (const auto &row : snap.histograms)
            tel.hists[row.name] = {row.count, row.sum};
        return tel;
    }

    /** Accumulate the change from @p before to @p after. */
    void
    add(const Tel &before, const Tel &after)
    {
        for (const auto &[name, v] : after.spans) {
            const auto it = before.spans.find(name);
            const auto base = it == before.spans.end()
                                  ? std::pair<std::uint64_t,
                                              std::uint64_t>{0, 0}
                                  : it->second;
            spans[name].first += v.first - base.first;
            spans[name].second += v.second - base.second;
        }
        for (const auto &[name, v] : after.counters) {
            const auto it = before.counters.find(name);
            counters[name] +=
                v - (it == before.counters.end() ? 0 : it->second);
        }
        for (const auto &[name, v] : after.hists) {
            const auto it = before.hists.find(name);
            const auto base = it == before.hists.end()
                                  ? std::pair<std::uint64_t,
                                              std::uint64_t>{0, 0}
                                  : it->second;
            hists[name].first += v.first - base.first;
            hists[name].second += v.second - base.second;
        }
    }

    double
    spanS(const std::string &name) const
    {
        const auto it = spans.find(name);
        return it == spans.end() ? 0.0 : it->second.second * 1e-9;
    }

    double
    counter(const std::string &name) const
    {
        const auto it = counters.find(name);
        return it == counters.end() ? 0.0
                                    : static_cast<double>(it->second);
    }

    /** Mean of the histograms whose names start with @p prefix and end
     *  with @p suffix (sum / count over all of them). */
    double
    histMean(const std::string &prefix, const std::string &suffix) const
    {
        std::uint64_t count = 0;
        std::uint64_t sum = 0;
        for (const auto &[name, v] : hists) {
            if (name.rfind(prefix, 0) == 0 && name.size() >= suffix.size() &&
                name.compare(name.size() - suffix.size(), suffix.size(),
                             suffix) == 0) {
                count += v.first;
                sum += v.second;
            }
        }
        return count ? static_cast<double>(sum) / count : 0.0;
    }
};

/** Run @p body with telemetry on, folding its deltas into @p into. */
template <typename Body>
void
traced(Tel &into, Body &&body)
{
    obs::setEnabled(true);
    const Tel before = Tel::now();
    body();
    const Tel after = Tel::now();
    obs::setEnabled(false);
    into.add(before, after);
}

// ---------------------------------------------------------------------
// Layer probes: the layers timed from outside, over the ten programs'
// streams as one suite (telemetry off).
// ---------------------------------------------------------------------

struct Probes
{
    double contentHashS = 0;
    double mapValidateS = 0;
    double bytesMapped = 0;
    double decodeNsPerEvent = 0;
    double foldS = 0;
    double codesizeS = 0;
    double fsOptS = 0;
    double fusedMappedNs = 0;
    double fusedOwnedNs = 0;
    std::vector<std::pair<std::string, double>> kernelNs;
    double batchNsPerEventPoint = 0;
    double storeS = 0;
    double vmExecuteS = 0;
    double vmInstructionsPerS = 0;
};

const std::vector<std::pair<const char *, core::SchemeKind>> &
kernelSchemes()
{
    static const std::vector<std::pair<const char *, core::SchemeKind>>
        schemes = {{"sbtb", core::SchemeKind::Sbtb},
                   {"cbtb", core::SchemeKind::Cbtb},
                   {"fs", core::SchemeKind::ForwardSemantic},
                   {"always-taken", core::SchemeKind::AlwaysTaken},
                   {"always-not-taken", core::SchemeKind::AlwaysNotTaken},
                   {"btfnt", core::SchemeKind::BackwardTaken},
                   {"opcode-bias", core::SchemeKind::OpcodeBias}};
    return schemes;
}

/** The input suite recordWorkload executes for @p workload. */
std::vector<workloads::WorkloadInput>
inputSuite(const workloads::Workload &workload,
           const core::ExperimentConfig &config)
{
    Rng rng(config.seed ^ hashString(workload.name()));
    const unsigned runs = config.runsOverride != 0
                              ? config.runsOverride
                              : workload.defaultRuns();
    return workload.makeInputs(rng, runs);
}

/** What rebuildProfile does on a warm hit: fold every recorded event
 *  into a fresh profile. */
profile::ProgramProfile
foldProfile(const core::RecordedWorkload &recorded)
{
    profile::ProgramProfile folded(*recorded.program, *recorded.layout);
    for (unsigned r = 0; r < recorded.runs; ++r)
        folded.noteRun();
    const trace::TraceView view = recorded.traceView();
    trace::TraceView::Cursor cursor = view.cursor();
    trace::TraceBlock block;
    while (cursor.next(block)) {
        for (std::size_t i = 0; i < block.count; ++i)
            folded.onBranch(block.event(i));
    }
    return folded;
}

/** Sixteen BTB/counter pairs: one replayBatch group of the sweep. */
std::vector<predict::BtbBatchPoint>
batchProbePoints()
{
    std::vector<predict::BtbBatchPoint> points;
    for (std::size_t entries : {64u, 128u, 256u, 512u}) {
        for (std::size_t assoc : {0u, 4u}) {
            for (unsigned threshold : {1u, 2u}) {
                predict::BtbBatchPoint point;
                point.btb.entries = entries;
                point.btb.associativity = assoc;
                point.counter.threshold = threshold;
                points.push_back(point);
            }
        }
    }
    return points;
}

/**
 * Time every unspanned layer once over the suite whose streams sit in
 * config.traceCacheDir. @p scratch receives a throwaway trace cache for
 * the store probe.
 */
Probes
runProbes(const core::ExperimentConfig &config, const std::string &scratch)
{
    Probes p;
    const trace::TraceCache cache(config.traceCacheDir);
    const trace::TraceCache sink(freshDir(scratch));
    std::map<std::string, double> kernel_s;
    double events = 0;
    double fused_owned_s = 0;
    double fused_mapped_s = 0;
    double decode_s = 0;
    double batch_s = 0;
    double instructions = 0;
    std::uint64_t checksum = 0;
    const std::vector<predict::BtbBatchPoint> batch = batchProbePoints();

    for (const workloads::Workload *workload : programs()) {
        auto t = Clock::now();
        const std::uint64_t hash =
            core::workloadContentHash(*workload, config);
        p.contentHashS += since(t);

        trace::CachedWorkload cached;
        t = Clock::now();
        const bool hit = cache.load(workload->name(), hash, cached);
        p.mapValidateS += since(t);
        if (!hit)
            blab_fatal("probe: no cached stream for ", workload->name());
        p.bytesMapped += static_cast<double>(
            fs::file_size(cache.entryPath(workload->name(), hash)));

        core::RecordedWorkload recorded =
            core::recordWorkload(*workload, config);
        const trace::TraceView view = recorded.traceView();
        events += static_cast<double>(view.size());

        // Bare cursor walk: the decode floor every consumer pays.
        t = Clock::now();
        {
            trace::TraceView::Cursor cursor = view.cursor();
            trace::TraceBlock block;
            while (cursor.next(block)) {
                for (std::size_t i = 0; i < block.count; ++i)
                    checksum += block.pc[i] ^ block.targetAddr[i] ^
                                block.ops[i];
            }
        }
        decode_s += since(t);

        t = Clock::now();
        const profile::ProgramProfile folded = foldProfile(recorded);
        p.foldS += since(t);

        t = Clock::now();
        for (const unsigned slots : config.codeSizeSlots) {
            checksum += static_cast<std::uint64_t>(
                1e6 * profile::codeIncreaseFor(folded, slots,
                                               config.traceThreshold));
        }
        p.codesizeS += since(t);

        t = Clock::now();
        {
            profile::FsOptConfig opt;
            opt.fs.slotCount = 2;
            opt.fs.trace.minArcProbability = config.traceThreshold;
            opt.level = profile::FsOptLevel::Hoist;
            const profile::FsOptResult result =
                profile::FsOptimizer(folded, opt).build();
            checksum += static_cast<std::uint64_t>(
                1e6 * profile::fsOptAccuracy(folded, result, view));
        }
        p.fsOptS += since(t);

        std::vector<core::KernelSpec> specs;
        for (const auto &[name, kind] : kernelSchemes()) {
            core::KernelSpec spec;
            spec.kind = kind;
            spec.btb = config.btb;
            spec.counter = config.counter;
            spec.likely = &recorded.likelyMap;
            specs.push_back(spec);
            t = Clock::now();
            checksum += core::replayKernel(view, spec).stats.accuracy.hits();
            kernel_s[name] += since(t);
        }

        t = Clock::now();
        checksum += core::replayManyKernel(view, specs)
                        .front()
                        .stats.accuracy.hits();
        fused_mapped_s += since(t);

        trace::SoaTrace owned = trace::materializeView(view);
        t = Clock::now();
        checksum += core::replayManyKernel(owned, specs)
                        .front()
                        .stats.accuracy.hits();
        fused_owned_s += since(t);

        t = Clock::now();
        checksum += core::replayBatch(view, batch)
                        .front()
                        .sbtb.stats.accuracy.hits();
        batch_s += since(t);

        trace::CachedWorkload entry;
        entry.contentHash = hash;
        entry.runs = recorded.runs;
        entry.stats = recorded.stats.counters();
        for (const auto &[pc, info] : recorded.likelyMap)
            entry.likely.push_back(
                {pc, info.dominantTarget, info.likelyTaken});
        std::sort(entry.likely.begin(), entry.likely.end(),
                  [](const trace::CachedLikely &a,
                     const trace::CachedLikely &b) { return a.pc < b.pc; });
        entry.stream = std::move(owned);
        t = Clock::now();
        sink.store(workload->name(), entry);
        p.storeS += since(t);

        // The VM alone: Machine::run into a BranchRecorder over the
        // same inputs the record pass executes.
        const ir::Program program = workload->buildProgram();
        const ir::Layout layout(program);
        const vm::PredecodedProgram code(program, layout);
        const std::vector<workloads::WorkloadInput> inputs =
            inputSuite(*workload, config);
        for (const workloads::WorkloadInput &input : inputs) {
            vm::Machine machine(code);
            for (std::size_t chan = 0; chan < input.channels.size(); ++chan)
                machine.setInput(static_cast<int>(chan),
                                 input.channels[chan]);
            trace::BranchRecorder recorder;
            machine.setSink(&recorder);
            vm::RunLimits limits;
            limits.maxInstructions = config.maxInstructionsPerRun;
            t = Clock::now();
            const vm::RunResult result = machine.run(limits);
            p.vmExecuteS += since(t);
            instructions += static_cast<double>(result.instructions);
            checksum += recorder.size();
        }
    }

    p.decodeNsPerEvent = 1e9 * decode_s / events;
    p.fusedMappedNs = 1e9 * fused_mapped_s / events;
    p.fusedOwnedNs = 1e9 * fused_owned_s / events;
    for (const auto &[name, kind] : kernelSchemes())
        p.kernelNs.push_back({name, 1e9 * kernel_s[name] / events});
    p.batchNsPerEventPoint =
        1e9 * batch_s / (events * static_cast<double>(batch.size()));
    p.vmInstructionsPerS = instructions / p.vmExecuteS;
    std::cerr << "blab_perf: probe checksum " << checksum << "\n";
    fs::remove_all(scratch);
    return p;
}

/** The per-layer metrics a workload measured, in the order set.
 *  BENCHMARK.json lists them all; run.py checks every name and unit
 *  against it and reports the ones a workload does not exercise as 0. */
struct Layers
{
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        rows;

    void
    set(const std::string &name, double value, const std::string &unit)
    {
        for (auto &row : rows) {
            if (row.first == name) {
                row.second = {value, unit};
                return;
            }
        }
        rows.push_back({name, {value, unit}});
    }

    void
    setProbes(const Probes &p)
    {
        set("vm.execute_s", p.vmExecuteS, "s");
        set("vm.instructions_per_s", p.vmInstructionsPerS, "1/s");
        set("trace.store_s", p.storeS, "s");
        set("trace.map_validate_s", p.mapValidateS, "s");
        set("trace.decode_ns_per_event", p.decodeNsPerEvent, "ns");
        set("trace.bytes_mapped", p.bytesMapped, "bytes");
        set("core.content_hash_s", p.contentHashS, "s");
        set("predict.fused_mapped_ns_per_event", p.fusedMappedNs, "ns");
        set("predict.fused_owned_ns_per_event", p.fusedOwnedNs, "ns");
        for (const auto &[name, ns] : p.kernelNs)
            set("predict.kernel_ns_per_event." + name, ns, "ns");
        set("predict.batch_ns_per_event_point", p.batchNsPerEventPoint, "ns");
        set("profile.fold_s", p.foldS, "s");
        set("profile.codesize_s", p.codesizeS, "s");
        set("profile.fs_opt_s", p.fsOptS, "s");
    }

    /** Report every row, then error_frac: the report's own failure
     *  share. */
    void
    into(Report &report) const
    {
        for (const auto &row : rows)
            report.metric(row.first, row.second.first, row.second.second);
        report.metric("error_frac",
                      report.attempted
                          ? static_cast<double>(report.failed) /
                                static_cast<double>(report.attempted)
                          : 0.0,
                      "ratio");
    }
};

/** Print one workload's layer table: self seconds per operation. */
void
printLayerTable(const std::string &workload, double op_s,
                const std::vector<std::pair<std::string, double>> &layers,
                double residual_frac)
{
    std::fprintf(stderr, "\nlayer table: %s (%.3f ms per operation)\n",
                 workload.c_str(), op_s * 1e3);
    std::fprintf(stderr, "  %-46s %12s %8s\n", "layer", "self ms", "share");
    for (const auto &[name, seconds] : layers) {
        std::fprintf(stderr, "  %-46s %12.3f %7.1f%%\n", name.c_str(),
                     seconds * 1e3, op_s > 0 ? 100.0 * seconds / op_s : 0.0);
    }
    std::fprintf(stderr, "  %-46s %12.3f %7.1f%%\n", "residual",
                 residual_frac * op_s * 1e3, 100.0 * residual_frac);
}

double
overheadPct(const std::vector<double> &untraced,
            const std::vector<double> &traced)
{
    if (untraced.empty() || traced.empty())
        return 0.0;
    return 100.0 * (median(traced) / median(untraced) - 1.0);
}

// ---------------------------------------------------------------------
// tables
// ---------------------------------------------------------------------

/** Rendered Tables 1-5 (as `branchlab tables` prints them) followed by
 *  every measured number at full precision, so the byte comparison also
 *  catches differences the rounded tables hide. */
std::string
renderTables(const std::vector<core::BenchmarkResult> &results)
{
    std::ostringstream os;
    const auto print = [&](const char *title, const TextTable &table) {
        os << "\n" << title << "\n";
        table.render(os);
    };
    print("Table 1: benchmark characteristics", core::makeTable1(results));
    print("Table 2: branch statistics", core::makeTable2(results));
    print("Table 3: prediction performance", core::makeTable3(results));
    print("Table 4: branch cost (k+l=2,3; m=1)", core::makeTable4(results));
    print("Table 5: code-size increase", core::makeTable5(results));
    print("Static schemes (section 1)",
          core::makeStaticSchemeTable(results));
    for (const core::BenchmarkResult &r : results) {
        const trace::TraceCounters c = r.stats.counters();
        os << r.name << ' ' << r.runs << ' ' << r.staticSize << ' '
           << c.instructions << ' ' << c.branches << ' ' << c.conditional
           << ' ' << c.condTaken << ' ' << c.uncondKnown;
        for (const core::SchemeResult *s : {&r.sbtb, &r.cbtb, &r.fs})
            os << ' ' << s->scheme << ' ' << num(s->accuracy) << ' '
               << num(s->missRatio);
        for (const core::SchemeResult &s : r.staticSchemes)
            os << ' ' << s.scheme << ' ' << num(s.accuracy);
        for (const auto &[slots, increase] : r.codeIncrease)
            os << ' ' << slots << ':' << num(increase);
        os << '\n';
    }
    return os.str();
}

struct TablesRun
{
    std::vector<core::BenchmarkResult> results;
    std::string rendered;
    double totalS = 0;
};

/** One tables computation: ExperimentRunner::runAll, then Tables 1-5
 *  rendered. */
TablesRun
tablesOnce(const core::ExperimentConfig &config)
{
    TablesRun run;
    const auto start = Clock::now();
    run.results = core::ExperimentRunner(config).runAll();
    run.rendered = renderTables(run.results);
    run.totalS = since(start);
    return run;
}

/** Recompute one program's accuracies through the virtual-dispatch
 *  reference path, and its code growth from a fresh profile fold;
 *  every number must match @p expected bit for bit. */
bool
tablesOracle(const core::ExperimentConfig &config, std::size_t index,
             const core::BenchmarkResult &expected)
{
    const core::RecordedWorkload recorded =
        core::recordWorkload(*programs()[index], config);
    const trace::TraceView view = recorded.traceView();
    bool ok = true;
    const auto hw = [&](predict::BranchPredictor &predictor,
                        const core::SchemeResult &want) {
        const core::ReplayResult got = core::replay(view, predictor);
        ok = ok && sameBits(got.accuracy, want.accuracy) &&
             sameBits(got.missRatio, want.missRatio);
    };
    predict::SimpleBtb sbtb(config.btb);
    hw(sbtb, expected.sbtb);
    predict::CounterBtb cbtb(config.btb, config.counter);
    hw(cbtb, expected.cbtb);
    predict::ProfilePredictor fs(recorded.likelyMap);
    ok = ok && sameBits(core::replay(view, fs).accuracy,
                        expected.fs.accuracy);
    predict::AlwaysTaken taken;
    predict::AlwaysNotTaken not_taken;
    predict::BackwardTaken btfnt;
    predict::OpcodeBias bias;
    const std::pair<const char *, predict::BranchPredictor *> statics[] = {
        {"always-taken", &taken},
        {"always-not-taken", &not_taken},
        {"btfnt", &btfnt},
        {"opcode-bias", &bias}};
    for (const auto &[name, predictor] : statics) {
        ok = ok && sameBits(core::replay(view, *predictor).accuracy,
                            expected.scheme(name).accuracy);
    }
    const profile::ProgramProfile folded = foldProfile(recorded);
    for (const unsigned slots : config.codeSizeSlots) {
        const auto it = expected.codeIncrease.find(slots);
        ok = ok && it != expected.codeIncrease.end() &&
             sameBits(profile::codeIncreaseFor(folded, slots,
                                               config.traceThreshold),
                      it->second);
    }
    return ok;
}

/** Warm computations per cold one in the tables window. */
constexpr std::size_t kWarmPerCold = 2;

/** One kind of tables computation's samples in the window. */
struct TablesSamples
{
    std::vector<double> untraced;
    std::vector<double> traced;
    Tel tel;

    std::vector<double>
    all() const
    {
        std::vector<double> out = untraced;
        out.insert(out.end(), traced.begin(), traced.end());
        return out;
    }
};

void
runTables(std::uint64_t seed, double seconds, bool trace, Report &report)
{
    core::ExperimentConfig config;
    config.seed = seed;
    config.jobs = kTablesJobs;

    // ---- Set-up: fresh stores, the ten content hashes, and one cold
    // computation that fills the trace cache and is the reference
    // every later computation must match. ----
    std::vector<double> setups;
    std::string reference;
    std::vector<core::BenchmarkResult> reference_results;
    for (int s = 0; s < kSetups; ++s) {
        const auto t = Clock::now();
        config.traceCacheDir = freshDir("tables/tc" + std::to_string(s));
        for (const workloads::Workload *w : programs())
            core::workloadContentHash(*w, config);
        const TablesRun cold = tablesOnce(config);
        reference = cold.rendered;
        reference_results = cold.results;
        setups.push_back(since(t));
        if (s + 1 < kSetups)
            fs::remove_all(config.traceCacheDir);
    }
    const std::string warm_cache = config.traceCacheDir;

    // ---- The window: kWarmPerCold warm computations against the
    // set-up's cache, then one cold computation against an empty one.
    // ----
    TablesSamples warm, cold;
    double events = 0;
    resetPeakRss();
    const auto window = Clock::now();
    for (std::size_t i = 0;
         i < (trace ? 2 * (kWarmPerCold + 1) : kWarmPerCold + 1) ||
         since(window) < seconds;
         ++i) {
        const bool is_cold = i % (kWarmPerCold + 1) == kWarmPerCold;
        const std::string cold_cache = "tables/cold" + std::to_string(i);
        config.traceCacheDir = is_cold ? freshDir(cold_cache) : warm_cache;
        // Each cycle's second warm computation is traced, so the
        // overhead compares neighbours; cold ones alternate by cycle.
        const bool on = trace && (is_cold ? (i / (kWarmPerCold + 1)) % 2 == 1
                                          : i % (kWarmPerCold + 1) == 1);
        TablesSamples &kind = is_cold ? cold : warm;
        TablesRun run;
        if (on)
            traced(kind.tel, [&] { run = tablesOnce(config); });
        else
            run = tablesOnce(config);
        (on ? kind.traced : kind.untraced).push_back(run.totalS);
        for (const core::BenchmarkResult &r : run.results)
            events += static_cast<double>(r.stats.branches());
        report.check(run.rendered == reference,
                     std::string("tables ") + (is_cold ? "cold" : "warm") +
                         " computation " + std::to_string(i) +
                         " differs from the set-up's cold computation");
        if (is_cold)
            fs::remove_all(cold_cache);
    }
    const double rss = peakRssMb();
    config.traceCacheDir = warm_cache;

    // The oracle recomputes one seed-chosen program.
    Rng rng(seed);
    const std::size_t oracle = rng.nextBelow(programs().size());
    report.check(tablesOracle(config, oracle, reference_results[oracle]),
                 "tables: oracle mismatch on " + programs()[oracle]->name());

    const std::size_t computations = warm.all().size() + cold.all().size();
    std::cerr << "blab_perf: tables " << warm.all().size() << " warm and "
              << cold.all().size() << " cold computations, "
              << events / static_cast<double>(computations)
              << " events each\n";

    if (!trace) {
        const double scale =
            1e3 * kRefEvents * static_cast<double>(computations) / events;
        report.metric("setup_s", median(setups), "s");
        report.metric("primary_ms", scale * median(warm.all()), "ms");
        report.metric("secondary_ms", scale * median(cold.all()), "ms");
        return;
    }

    const Probes probes = runProbes(config, "tables/probe");
    // Span totals are sums, so compare them with the mean traced
    // computation. A negative residual means the layers attribute more
    // than the computation took.
    const auto layerTable = [&](const char *name, const TablesSamples &k,
                                bool is_warm) {
        const double ops = static_cast<double>(k.traced.size());
        const double op = mean(k.traced);
        const double record = k.tel.spanS("engine.record") / ops;
        const double replay = k.tel.spanS("engine.replay") / ops;
        const double codesize = k.tel.spanS("engine.codesize") / ops;
        // The warm fold has no span: attribute the probe's time to it.
        const double fold = is_warm ? probes.foldS : 0.0;
        const double residual =
            (op - record - replay - codesize - fold) / op;
        printLayerTable(
            name, op,
            is_warm ? std::vector<std::pair<std::string, double>>{
                          {"engine.record (span)", record},
                          {"  core.content_hash (probe)",
                           probes.contentHashS},
                          {"  trace.map_validate (probe)",
                           probes.mapValidateS},
                          {"engine.replay (span)", replay},
                          {"engine.codesize (span)", codesize},
                          {"profile.fold (probe, no span)", fold}}
                    : std::vector<std::pair<std::string, double>>{
                          {"engine.record (span)", record},
                          {"  core.content_hash (probe)",
                           probes.contentHashS},
                          {"  vm.execute (probe)", probes.vmExecuteS},
                          {"  profile.fold (probe, online here)",
                           probes.foldS},
                          {"  trace.store (probe)", probes.storeS},
                          {"engine.replay (span)", replay},
                          {"engine.codesize (span)", codesize}},
            residual);
        return residual;
    };
    const double residual = layerTable("tables, warm computation", warm, true);
    layerTable("tables, cold computation", cold, false);

    // Counters are per warm computation: the VM must not run there.
    const double warm_ops = static_cast<double>(warm.traced.size());
    const double vm_runs = warm.tel.counter("vm.runs") / warm_ops;
    report.check(vm_runs == 0, "tables: the VM ran in a warm computation");
    std::cerr << "blab_perf: vm.runs per cold computation "
              << cold.tel.counter("vm.runs") /
                     static_cast<double>(cold.traced.size())
              << "\n";
    Layers layers;
    layers.setProbes(probes);
    layers.set("core.residual_frac", residual, "ratio");
    layers.set("vm.runs", vm_runs, "count");
    const double hits = warm.tel.counter("trace_cache.hits");
    const double misses = warm.tel.counter("trace_cache.misses");
    layers.set("trace.cache_hit_ratio",
               hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
    layers.set("support.pool_queue_wait_us",
               warm.tel.histMean("threadpool.", ".queue_wait_ns") / 1e3,
               "us");
    // Warm computations come in (untraced, traced) neighbour pairs.
    std::vector<double> pair_pct;
    for (std::size_t k = 0; k < warm.traced.size(); ++k)
        pair_pct.push_back(100.0 * (warm.traced[k] / warm.untraced[k] - 1.0));
    layers.set("obs.trace_overhead_pct", median(pair_pct), "%");
    layers.set("peak_rss_mb", rss, "MB");
    layers.into(report);
}


// ---------------------------------------------------------------------
// Journal probe, shared by sweep and serve_mix
// ---------------------------------------------------------------------

struct JournalProbe
{
    double openS = 0;
    double loadUs = 0;
    double storeUs = 0;
    double flushS = 0;
    double bytes = 0;
};

/**
 * Time the journal from outside: open @p dir and load @p keys from it,
 * then store @p cells under the same keys into a scratch journal,
 * flushing after every record when @p flush_each (the daemon's miss
 * path) or once at the end (the sweep's).
 */
JournalProbe
probeJournal(const std::string &dir, const std::vector<std::uint64_t> &keys,
             const std::vector<std::vector<core::SweepCell>> &cells,
             const std::string &scratch, bool flush_each)
{
    JournalProbe p;
    p.bytes = static_cast<double>(dirBytes(dir));
    {
        core::SweepJournal journal(dir);
        auto t = Clock::now();
        journal.open();
        p.openS = since(t);
        std::vector<core::SweepCell> loaded;
        t = Clock::now();
        for (const std::uint64_t key : keys)
            journal.load(key, loaded);
        p.loadUs = 1e6 * since(t) / static_cast<double>(keys.size());
    }
    core::SweepJournal journal(freshDir(scratch));
    journal.open();
    double store_s = 0;
    double flush_s = 0;
    std::size_t flushes = 0;
    for (std::size_t i = 0; i < keys.size(); ++i) {
        auto t = Clock::now();
        journal.store(keys[i], cells[i]);
        store_s += since(t);
        if (flush_each || i + 1 == keys.size()) {
            t = Clock::now();
            journal.flush();
            flush_s += since(t);
            ++flushes;
        }
    }
    p.storeUs = 1e6 * store_s / static_cast<double>(keys.size());
    p.flushS = flush_s / static_cast<double>(flushes);
    fs::remove_all(scratch);
    return p;
}

// ---------------------------------------------------------------------
// sweep
// ---------------------------------------------------------------------

/** 32 BTB/counter pairs (two replayBatch groups) crossed with FS slots
 *  {2, 4} and fs-opt {none, hoist}: 128 points. */
core::SweepConfig
sweepConfig(std::uint64_t seed, const std::string &cache)
{
    core::SweepConfig config;
    config.base.seed = seed;
    config.base.jobs = kSweepJobs;
    config.base.traceCacheDir = cache;
    config.axes.btbEntries = {64, 128, 256, 512};
    config.axes.btbAssociativity = {0, 4};
    config.axes.btbPolicies = {predict::ReplacementPolicy::Lru,
                               predict::ReplacementPolicy::Fifo};
    config.axes.counterBits = {2};
    config.axes.counterThresholds = {1, 2};
    config.axes.fsSlots = {2, 4};
    config.axes.fsOptLevels = {profile::FsOptLevel::None,
                               profile::FsOptLevel::Hoist};
    return config;
}

/** Every point's label and cells at full precision. */
std::string
renderGrid(const core::SweepResult &result)
{
    std::ostringstream os;
    for (const core::SweepPointResult &point : result.points) {
        os << point.point.index << ' ' << point.point.label();
        for (const core::SweepCell &c : point.cells)
            os << ' ' << num(c.sbtbAccuracy) << ' ' << num(c.sbtbMissRatio)
               << ' ' << num(c.cbtbAccuracy) << ' ' << num(c.cbtbMissRatio)
               << ' ' << num(c.fsAccuracy) << ' ' << num(c.codeIncrease);
        os << '\n';
    }
    return os.str();
}

/** Recompute one cell through the virtual-dispatch reference path.
 *  The FS columns are recomputed for seed-transform points only; the
 *  optimized levels have no predictor-form reference. */
bool
cellOracle(const core::ExperimentConfig &config, std::size_t program,
           const core::SweepPoint &point, const core::SweepCell &want)
{
    const core::RecordedWorkload recorded =
        core::recordWorkload(*programs()[program], config);
    const trace::TraceView view = recorded.traceView();
    predict::SimpleBtb sbtb(point.btb);
    const core::ReplayResult s = core::replay(view, sbtb);
    predict::CounterBtb cbtb(point.btb, point.counter);
    const core::ReplayResult c = core::replay(view, cbtb);
    bool ok = sameBits(s.accuracy, want.sbtbAccuracy) &&
              sameBits(s.missRatio, want.sbtbMissRatio) &&
              sameBits(c.accuracy, want.cbtbAccuracy) &&
              sameBits(c.missRatio, want.cbtbMissRatio);
    if (point.fsOpt == profile::FsOptLevel::None) {
        predict::ProfilePredictor fs(recorded.likelyMap);
        const profile::ProgramProfile folded = foldProfile(recorded);
        ok = ok &&
             sameBits(core::replay(view, fs).accuracy, want.fsAccuracy) &&
             sameBits(profile::codeIncreaseFor(folded, point.fsSlots,
                                               point.traceThreshold),
                      want.codeIncrease);
    }
    return ok;
}

std::vector<std::uint64_t>
streamHashes(const core::ExperimentConfig &config)
{
    std::vector<std::uint64_t> hashes;
    for (const workloads::Workload *w : programs())
        hashes.push_back(core::workloadContentHash(*w, config));
    return hashes;
}

/** Resumed passes after each cold pass: a resume is short, so several
 *  give its median as many samples as the cold pass's. */
constexpr std::size_t kResumePasses = 3;

void
runSweepWorkload(std::uint64_t seed, double seconds, bool trace,
                 Report &report)
{
    // ---- Set-up: fresh stores, the ten content hashes, and a trace
    // cache holding every program's stream. ----
    std::vector<double> setups;
    core::SweepConfig config;
    double events = 0;
    for (int s = 0; s < kSetups; ++s) {
        const auto t = Clock::now();
        config = sweepConfig(seed, freshDir("sweep/tc" + std::to_string(s)));
        streamHashes(config.base);
        events = 0;
        for (const workloads::Workload *w : programs()) {
            events += static_cast<double>(
                core::recordWorkload(*w, config.base).traceView().size());
        }
        setups.push_back(since(t));
        if (s + 1 < kSetups)
            fs::remove_all(config.base.traceCacheDir);
    }
    const std::size_t grid = core::expandGrid(config.axes).size();

    // ---- The window: cold pass into a fresh journal, then resume. ----
    std::vector<double> cold_s, resume_s, untraced_s, traced_s;
    std::vector<double> resumed_ratio;
    std::string reference;
    core::SweepResult reference_result;
    Tel tel;
    std::size_t traced_passes = 0;
    resetPeakRss();
    const auto window = Clock::now();
    for (std::size_t i = 0;
         i < (trace ? 2u : 1u) || since(window) < seconds; ++i) {
        if (i > 0)
            fs::remove_all(config.journalDir);
        config.journalDir = freshDir("sweep/jr" + std::to_string(i));
        const bool on = trace && i % 2 == 1;
        core::SweepResult cold;
        std::vector<core::SweepResult> resumed(kResumePasses);
        double c_s = 0, r_s = 0;
        const auto cycle = [&] {
            auto t = Clock::now();
            cold = core::runSweep(config);
            c_s = since(t);
            for (core::SweepResult &pass : resumed) {
                t = Clock::now();
                pass = core::runSweep(config);
                r_s = since(t);
                resume_s.push_back(r_s);
            }
        };
        if (on) {
            traced(tel, cycle);
            traced_passes += 1 + kResumePasses;
        } else {
            cycle();
        }
        cold_s.push_back(c_s);
        // A traced or untraced operation is a cold pass plus one resume.
        (on ? traced_s : untraced_s).push_back(c_s + r_s);
        const std::string cold_text = renderGrid(cold);
        if (reference.empty()) {
            reference = cold_text;
            reference_result = cold;
        }
        const std::string tag = "sweep cycle " + std::to_string(i);
        report.check(cold.points.size() == grid &&
                         cold.stats.evaluated == grid &&
                         cold.stats.resumed == 0 &&
                         cold.stats.recordPasses == 0,
                     tag + ": cold pass did not evaluate every point "
                           "from the warm trace cache");
        report.check(cold_text == reference,
                     tag + ": cold grid differs from the reference");
        for (const core::SweepResult &pass : resumed) {
            resumed_ratio.push_back(static_cast<double>(pass.stats.resumed) /
                                    static_cast<double>(grid));
            report.check(pass.points.size() == grid &&
                             pass.stats.resumed == grid &&
                             pass.stats.evaluated == 0,
                         tag + ": resume pass did not resume every point");
            report.check(renderGrid(pass) == reference,
                         tag + ": resumed grid differs from the cold grid");
        }
    }
    const double rss = peakRssMb();

    Rng rng(seed ^ 0x5eedULL);
    const std::size_t point = rng.nextBelow(grid);
    const std::size_t program = rng.nextBelow(programs().size());
    report.check(cellOracle(config.base, program,
                            reference_result.points[point].point,
                            reference_result.points[point].cells[program]),
                 "sweep: oracle mismatch at point " + std::to_string(point) +
                     " on " + programs()[program]->name());

    const double cells = static_cast<double>(grid * programs().size());
    std::cerr << "blab_perf: sweep " << cold_s.size() << " cycles over "
              << events << " events, " << cells / median(cold_s)
              << " cells/s cold, resume " << median(resume_s) << " s\n";

    if (!trace) {
        const double scale = 1e3 * kRefEvents / events;
        report.metric("setup_s", median(setups), "s");
        report.metric("primary_ms", scale * median(cold_s), "ms");
        report.metric("secondary_ms", scale * median(resume_s), "ms");
        return;
    }

    const Probes probes = runProbes(config.base, "sweep/probe");
    std::vector<std::uint64_t> keys;
    std::vector<std::vector<core::SweepCell>> cell_rows;
    const std::vector<std::uint64_t> hashes = streamHashes(config.base);
    for (const core::SweepPointResult &p : reference_result.points) {
        keys.push_back(
            core::sweepPointKey(p.point, reference_result.workloads, hashes));
        cell_rows.push_back(p.cells);
    }
    const JournalProbe journal = probeJournal(config.journalDir, keys,
                                              cell_rows, "sweep/jprobe",
                                              false);
    Layers layers;
    layers.setProbes(probes);
    layers.set("core.journal_open_s", journal.openS, "s");
    layers.set("core.journal_load_us", journal.loadUs, "us");
    layers.set("core.journal_store_us", journal.storeUs, "us");
    layers.set("core.journal_flush_s", journal.flushS, "s");
    layers.set("core.journal_bytes", journal.bytes, "bytes");
    layers.set("core.points_resumed_ratio",
               *std::min_element(resumed_ratio.begin(), resumed_ratio.end()),
               "ratio");

    // One operation is a cold pass plus its resume. Both passes open
    // the journal and look every point up; the cold pass also stores
    // and seals it.
    const double cycles =
        static_cast<double>(traced_passes) / (1 + kResumePasses);
    const double op = mean(traced_s);
    // Per operation (a cold pass plus one resume): the record span runs
    // in every pass, the point span in the cold pass only.
    const double prepare =
        2 * tel.spanS("sweep.record") / static_cast<double>(traced_passes);
    const double points = tel.spanS("sweep.point") / kSweepJobs / cycles;
    const double journal_s =
        2 * journal.openS +
        2 * static_cast<double>(grid) * journal.loadUs * 1e-6 +
        static_cast<double>(grid) * journal.storeUs * 1e-6 + journal.flushS;
    const double residual = (op - prepare - points - journal_s) / op;
    printLayerTable("sweep", op,
                    // Prepare runs on kSweepJobs workers in each of the
                    // two passes, so a probe's single-thread suite time
                    // counts 2 / kSweepJobs times (fs_opt: once per
                    // hoist slot count).
                    {{"sweep.record+prepare (span, 2 passes)", prepare},
                     {"  trace.map_validate (probe)",
                      2.0 / kSweepJobs * probes.mapValidateS},
                     {"  profile.fold (probe)",
                      2.0 / kSweepJobs * probes.foldS},
                     {"  profile.fs_opt (probe, 2 slot counts)",
                      4.0 / kSweepJobs * probes.fsOptS},
                     {"sweep.point (span / jobs)", points},
                     {"core.journal (probe)", journal_s}},
                    residual);
    layers.set("core.residual_frac", residual, "ratio");
    layers.set("core.sweep_prepare_s",
               tel.spanS("sweep.record") / static_cast<double>(traced_passes),
               "s");
    layers.set("vm.runs", tel.counter("vm.runs") / cycles, "count");
    const double hits = tel.counter("trace_cache.hits");
    const double misses = tel.counter("trace_cache.misses");
    layers.set("trace.cache_hit_ratio",
               hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
    layers.set("support.pool_queue_wait_us",
               tel.histMean("threadpool.", ".queue_wait_ns") / 1e3, "us");
    layers.set("obs.trace_overhead_pct", overheadPct(untraced_s, traced_s),
               "%");
    layers.set("peak_rss_mb", rss, "MB");
    layers.into(report);
}

// ---------------------------------------------------------------------
// serve_mix
// ---------------------------------------------------------------------

/** Served streams cover three input runs per program, so a miss costs
 *  about 5-130 ms idle (lex is the heaviest), ending well inside the
 *  miss cadence below. A miss's seal (two fsyncs, about 1 ms on an idle
 *  disk and several times that on a busy one) is then a small share of
 *  its latency, and the miss metric follows the evaluation rather than
 *  the disk. */
constexpr unsigned kServeRuns = 3;
/** The served programs' inputs: the library's default seed. With few
 *  input runs per program, the seed's input sizes would move a miss's
 *  cost twofold (the programs' geometric-mean stream was 32k-70k events
 *  over the seeds tried), so --seed drives the schedule, the design
 *  points and the oracle sample here, but not the inputs. */
const std::uint64_t kServeInputSeed = core::ExperimentConfig{}.seed;
/** Open-loop arrival rate (requests per second) and miss share. */
constexpr double kServeRate = 100.0;
constexpr double kMissShare = 0.05;
/** Design points journalled in set-up; hits spread over them. */
constexpr std::size_t kHitPoints = 4;
/** Connections: kPersistent pipelined ones plus one reconnecting. */
constexpr unsigned kPersistent = 3;
/** One request in kReconnectEvery goes over the reconnecting one. */
constexpr unsigned kReconnectEvery = 8;
/** No request is due in the window's last half second, so anything
 *  still outstanding when it closes has been stuck that long. */
constexpr double kDrainMargin = 0.5;

core::SweepPoint
randomPoint(Rng &rng)
{
    static const std::vector<std::size_t> entries = {32, 64, 128,
                                                     256, 512, 1024};
    static const std::vector<std::size_t> assocs = {0, 1, 2, 4, 8};
    static const std::vector<unsigned> bits = {1, 2, 3};
    static const std::vector<unsigned> slots = {1, 2, 4, 8};
    core::SweepPoint point;
    point.btb.entries = rng.pick(entries);
    point.btb.associativity = rng.pick(assocs);
    point.btb.policy = rng.nextBool() ? predict::ReplacementPolicy::Lru
                                      : predict::ReplacementPolicy::Fifo;
    point.counter.bits = rng.pick(bits);
    point.counter.threshold =
        1 + static_cast<unsigned>(
                rng.nextBelow((1u << point.counter.bits) - 1));
    point.fsSlots = rng.pick(slots);
    point.traceThreshold =
        0.5 + static_cast<double>(rng.nextBelow(450)) / 1000.0;
    return point;
}

/**
 * Confine the calling thread, and every thread it creates from here on,
 * to the last CPU it may run on. On a virtual machine, waking a thread
 * on another, halted vCPU goes through the host's scheduler. After
 * sustained load on two or more CPUs (a sweep run, a build) that costs
 * about 90 us instead of 30 us, for seconds to minutes, and a served
 * hit makes three such hand-offs. On one CPU every hand-off is made by
 * the running CPU, so hit latency measures the daemon and not what ran
 * before the benchmark.
 */
void
pinToOneCpu()
{
    cpu_set_t cpus;
    int last = -1;
    if (::sched_getaffinity(0, sizeof cpus, &cpus) == 0) {
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
            if (CPU_ISSET(cpu, &cpus))
                last = cpu;
        }
    }
    CPU_ZERO(&cpus);
    if (last >= 0)
        CPU_SET(last, &cpus);
    if (last < 0 || ::sched_setaffinity(0, sizeof cpus, &cpus) != 0)
        blab_fatal("cannot pin serve_mix to one CPU");
    std::cerr << "blab_perf: serve_mix runs on CPU " << last << "\n";
}

/** Sleep until shortly before @p due, then spin: sleep overshoot is
 *  tens of microseconds, which would read as request latency. */
void
waitUntil(Clock::time_point due)
{
    const Clock::time_point early = due - std::chrono::microseconds(300);
    if (Clock::now() < early)
        std::this_thread::sleep_until(early);
    while (Clock::now() < due) {
    }
}

serve::Request
requestFor(const core::SweepPoint &point, const std::string &program,
           std::uint64_t id)
{
    serve::Request request;
    request.requestId = id;
    request.seed = kServeInputSeed;
    request.runs = kServeRuns;
    request.btb = point.btb;
    request.counter = point.counter;
    request.fsSlots = point.fsSlots;
    request.traceThreshold = point.traceThreshold;
    request.fsOpt = point.fsOpt;
    request.workloads = {program};
    return request;
}

struct Planned
{
    double due = 0;
    unsigned conn = 0;
    bool miss = false;
    std::size_t program = 0;
    core::SweepPoint point;
    /** Index into the hit points (hits only). */
    std::size_t hitPoint = 0;
};

struct Observed
{
    double sent = -1;
    double done = -1;
    bool responded = false;
    bool traced = false;
    serve::Response response;
};

void
runServe(std::uint64_t seed, double seconds, bool trace, Report &report)
{
    core::ExperimentConfig config;
    config.seed = kServeInputSeed;
    config.runsOverride = kServeRuns;
    config.jobs = 1;
    const std::size_t nprog = programs().size();
    // Before any thread exists, so the daemon's and the clients' threads
    // inherit it.
    pinToOneCpu();

    Rng rng(seed ^ 0x5e77eULL);
    std::set<std::string> used;
    const auto freshPoint = [&] {
        for (;;) {
            core::SweepPoint point = randomPoint(rng);
            if (used.insert(point.label()).second)
                return point;
        }
    };
    std::vector<core::SweepPoint> hit_points;
    for (std::size_t h = 0; h < kHitPoints; ++h)
        hit_points.push_back(freshPoint());

    // ---- Set-up: fresh stores, a trace cache with every program's
    // stream, a running daemon, and every hit key journalled through it
    // and checked against evaluatePointCell. ----
    std::vector<double> setups;
    std::unique_ptr<serve::Daemon> daemon;
    std::string dir;
    std::vector<std::vector<core::SweepCell>> expected_hits(
        kHitPoints, std::vector<core::SweepCell>(nprog));
    for (int s = 0; s < kSetups; ++s) {
        if (daemon) {
            daemon->requestDrain();
            daemon->waitStopped();
            daemon.reset();
            fs::remove_all(dir);
        }
        const auto t = Clock::now();
        dir = freshDir("serve/s" + std::to_string(s));
        config.traceCacheDir = dir + "/tc";
        for (const workloads::Workload *w : programs())
            core::recordWorkload(*w, config);
        serve::DaemonConfig dc;
        dc.listen = "unix:" + dir + "/d.sock";
        dc.jobs = kServeWorkers;
        dc.service.traceCacheDir = config.traceCacheDir;
        dc.service.journalDir = dir + "/jr";
        daemon = std::make_unique<serve::Daemon>(dc);
        daemon->start();
        serve::Client client(daemon->address());
        for (std::size_t h = 0; h < kHitPoints; ++h) {
            for (std::size_t p = 0; p < nprog; ++p) {
                const std::string &name = programs()[p]->name();
                const serve::Response response = client.call(
                    requestFor(hit_points[h], name, 1));
                expected_hits[h][p] = core::evaluatePointCell(
                    core::recordWorkload(*programs()[p], config),
                    hit_points[h]);
                report.check(response.status == serve::ResponseStatus::Ok &&
                                 !response.cacheHit &&
                                 response.cells.size() == 1 &&
                                 response.cells.front() ==
                                     expected_hits[h][p],
                             "serve set-up: journalling " + name +
                                 " at " + hit_points[h].label());
            }
        }
        setups.push_back(since(t));
    }

    // ---- The schedule: misses on a fixed cadence, one every
    // span / miss_count seconds from a seeded phase, spread evenly over
    // the programs; hits at uniform due times over the window (a
    // Poisson process conditioned on its count), stratified over
    // programs and spread over the hit points. Evenly spaced misses
    // never queue behind one another, so a miss's latency is its own
    // evaluation and seal plus the hits it shares the CPU with. ----
    const double span = seconds - kDrainMargin;
    const std::size_t total =
        static_cast<std::size_t>(std::llround(kServeRate * span));
    const std::size_t miss_count = std::max<std::size_t>(
        nprog, nprog * static_cast<std::size_t>(std::llround(
                           total * kMissShare / static_cast<double>(nprog))));
    std::vector<Planned> plan(total);
    const double cadence = span / static_cast<double>(miss_count);
    const double phase = rng.nextDouble() * cadence;
    for (std::size_t k = 0; k < total; ++k) {
        plan[k].miss = k < miss_count;
        plan[k].due = plan[k].miss
                          ? phase + static_cast<double>(k) * cadence
                          : rng.nextDouble() * span;
    }
    std::sort(plan.begin(), plan.end(),
              [](const Planned &a, const Planned &b) { return a.due < b.due; });
    const auto shuffle = [&](auto &items) {
        for (std::size_t i = items.size(); i > 1; --i)
            std::swap(items[i - 1], items[rng.nextBelow(i)]);
    };
    // Separate program orders for hits and misses, so each kind is
    // stratified on its own.
    std::vector<std::size_t> hit_perm(nprog), miss_perm(nprog);
    std::size_t hit_seen = 0;
    std::size_t miss_seen = 0;
    for (Planned &item : plan) {
        const std::size_t nth = item.miss ? miss_seen++ : hit_seen++;
        std::vector<std::size_t> &perm = item.miss ? miss_perm : hit_perm;
        if (nth % nprog == 0) {
            for (std::size_t p = 0; p < nprog; ++p)
                perm[p] = p;
            shuffle(perm);
        }
        item.program = perm[nth % nprog];
        if (item.miss) {
            item.point = freshPoint();
        } else {
            item.hitPoint = rng.nextBelow(kHitPoints);
            item.point = hit_points[item.hitPoint];
        }
        item.conn = rng.nextBelow(kReconnectEvery) == 0
                        ? kPersistent
                        : static_cast<unsigned>(rng.nextBelow(kPersistent));
    }

    // ---- The window. ----
    std::vector<Observed> seen(total);
    const std::string address = daemon->address();
    std::vector<std::unique_ptr<serve::Client>> clients;
    for (unsigned c = 0; c < kPersistent; ++c)
        clients.push_back(std::make_unique<serve::Client>(address));
    std::vector<std::thread> threads;
    // Drain the daemon and join every client thread on every path out
    // of here; destroying a joinable std::thread ends the program.
    struct Joiner
    {
        std::unique_ptr<serve::Daemon> &daemon;
        std::vector<std::thread> &threads;

        ~Joiner()
        {
            if (daemon) {
                daemon->requestDrain();
                daemon->waitStopped();
            }
            for (std::thread &thread : threads) {
                if (thread.joinable())
                    thread.join();
            }
        }
    } joiner{daemon, threads};
    resetPeakRss();
    const auto start = Clock::now();
    const auto dueAt = [&](double due) {
        return start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(due));
    };
    for (unsigned c = 0; c < kPersistent; ++c) {
        std::size_t expected = 0;
        for (const Planned &item : plan)
            expected += item.conn == c ? 1 : 0;
        threads.emplace_back([&, c] {
            try {
                for (std::size_t i = 0; i < total; ++i) {
                    if (plan[i].conn != c)
                        continue;
                    waitUntil(dueAt(plan[i].due));
                    seen[i].traced = obs::enabled();
                    seen[i].sent = since(start);
                    clients[c]->sendFrame(serve::encodeRequest(requestFor(
                        plan[i].point, programs()[plan[i].program]->name(),
                        i + 1)));
                }
            } catch (const std::exception &failure) {
                std::cerr << "blab_perf: sender " << c << ": "
                          << failure.what() << "\n";
            }
        });
        threads.emplace_back([&, c, expected] {
            try {
                for (std::size_t k = 0; k < expected; ++k) {
                    serve::Response response;
                    if (!clients[c]->receive(response))
                        break;
                    const double done = since(start);
                    if (response.requestId == 0 || response.requestId > total)
                        continue;
                    Observed &obs = seen[response.requestId - 1];
                    obs.done = done;
                    obs.response = std::move(response);
                    obs.responded = true;
                }
            } catch (const std::exception &failure) {
                std::cerr << "blab_perf: receiver " << c << ": "
                          << failure.what() << "\n";
            }
        });
    }
    threads.emplace_back([&] {
        for (std::size_t i = 0; i < total; ++i) {
            if (plan[i].conn != kPersistent)
                continue;
            waitUntil(dueAt(plan[i].due));
            seen[i].traced = obs::enabled();
            seen[i].sent = since(start);
            try {
                serve::Client client(address);
                serve::Response response = client.call(requestFor(
                    plan[i].point, programs()[plan[i].program]->name(),
                    i + 1));
                seen[i].done = since(start);
                seen[i].response = std::move(response);
                seen[i].responded = true;
            } catch (const std::exception &failure) {
                std::cerr << "blab_perf: reconnecting client: "
                          << failure.what() << "\n";
            }
        }
    });

    // Sample the daemon's footprint; in a traced run, alternate
    // half-second slices with telemetry on and off.
    Tel tel;
    double threads_peak = 0;
    double vmsize_peak = 0;
    {
        constexpr double kSlice = 0.5;
        bool on = false;
        Tel before;
        while (since(start) < seconds) {
            const bool want =
                trace && static_cast<long>(since(start) / kSlice) % 2 == 1;
            if (want != on) {
                if (want) {
                    obs::setEnabled(true);
                    before = Tel::now();
                } else {
                    tel.add(before, Tel::now());
                    obs::setEnabled(false);
                }
                on = want;
            }
            threads_peak = std::max(threads_peak, procStatus("Threads"));
            vmsize_peak = std::max(vmsize_peak, procStatus("VmSize") / 1024.0);
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
        if (on) {
            tel.add(before, Tel::now());
            obs::setEnabled(false);
        }
    }
    const double rss = peakRssMb();

    // Idle round trip, for the traced run's transport attribution.
    std::vector<double> ping_us;
    if (trace) {
        try {
            serve::Client pinger(address);
            serve::Request ping;
            ping.type = serve::RequestType::Ping;
            for (int i = 0; i < 200; ++i) {
                const auto t = Clock::now();
                pinger.call(ping);
                ping_us.push_back(1e6 * since(t));
            }
        } catch (const std::exception &failure) {
            report.check(false, std::string("serve: ping: ") +
                                    failure.what());
        }
    }
    daemon->requestDrain();
    daemon->waitStopped();
    for (std::thread &thread : threads)
        thread.join();

    // ---- Checks: every request answered Ok inside the window, hits
    // from the journal and misses evaluated, with cells byte-identical
    // to evaluatePointCell computed here, outside the window. ----
    std::vector<double> hit_ms, miss_ms, traced_hit_ms, late_ms,
        traced_late_ms;
    std::vector<std::vector<double>> miss_by_program(nprog);
    std::size_t evaluations = 0;
    std::size_t served_hits = 0;
    std::size_t rejects = 0;
    std::size_t oracle_index = total;
    const std::size_t oracle_nth = rng.nextBelow(miss_count);
    std::size_t misses_seen = 0;
    for (std::size_t i = 0; i < total; ++i) {
        const Planned &item = plan[i];
        const Observed &obs = seen[i];
        const serve::Response &response = obs.response;
        if (obs.sent >= 0)
            late_ms.push_back(1e3 * (obs.sent - item.due));
        if (obs.responded &&
            response.status == serve::ResponseStatus::Reject)
            ++rejects;
        const bool ok_status =
            obs.responded && response.status == serve::ResponseStatus::Ok &&
            response.cells.size() == 1;
        if (ok_status) {
            (response.cacheHit ? served_hits : evaluations) += 1;
        }
        core::SweepCell want;
        if (item.miss) {
            if (misses_seen++ == oracle_nth)
                oracle_index = i;
            want = core::evaluatePointCell(
                core::recordWorkload(*programs()[item.program], config),
                item.point);
        } else {
            want = expected_hits[item.hitPoint][item.program];
        }
        const bool ok = ok_status && obs.done <= seconds &&
                        response.cacheHit == !item.miss &&
                        response.cells.front() == want;
        report.check(ok, "serve request " + std::to_string(i + 1) + " (" +
                             (item.miss ? "miss" : "hit") + ", " +
                             programs()[item.program]->name() + ")");
        if (!obs.responded)
            continue;
        const double latency = 1e3 * (obs.done - item.due);
        if (item.miss) {
            miss_ms.push_back(latency);
            miss_by_program[item.program].push_back(latency);
        } else if (obs.traced) {
            traced_hit_ms.push_back(latency);
            traced_late_ms.push_back(1e3 * (obs.sent - item.due));
        } else {
            hit_ms.push_back(latency);
        }
    }
    {
        // Hit p50 per fifth of the window, to show drift inside a run.
        std::vector<std::vector<double>> fifths(5);
        for (std::size_t i = 0; i < total; ++i) {
            if (!plan[i].miss && seen[i].responded)
                fifths[std::min<std::size_t>(4, static_cast<std::size_t>(
                                                    5 * plan[i].due / span))]
                    .push_back(1e3 * (seen[i].done - plan[i].due));
        }
        std::cerr << "blab_perf: hit p50 by fifth of the window (us):";
        for (const std::vector<double> &fifth : fifths)
            std::cerr << ' ' << 1e3 * median(fifth);
        std::cerr << "; generator lateness p50 " << 1e3 * median(late_ms)
                  << " us\n";
    }
    report.check(evaluations == miss_count,
                 "serve: evaluations " + std::to_string(evaluations) +
                     " != planned misses " + std::to_string(miss_count));
    if (oracle_index < total) {
        const Planned &item = plan[oracle_index];
        const serve::Response &response = seen[oracle_index].response;
        report.check(!response.cells.empty() &&
                         cellOracle(config, item.program, item.point,
                                    response.cells.front()),
                     "serve: oracle mismatch on " +
                         programs()[item.program]->name());
    }
    std::cerr << "blab_perf: serve_mix " << total << " requests ("
              << miss_count << " misses), hit p50/p99 "
              << median(hit_ms) * 1e3 << "/"
              << quantile(hit_ms, 0.99) * 1e3 << " us, miss p10/p50/p90 "
              << quantile(miss_ms, 0.1) << "/" << median(miss_ms) << "/"
              << quantile(miss_ms, 0.9) << " ms\n";

    if (!trace) {
        report.metric("setup_s", median(setups), "s");
        report.metric("primary_ms", median(hit_ms), "ms");
        report.metric("secondary_ms", meanOfMedians(miss_by_program),
                      "ms");
        return;
    }

    // ---- Per-layer probes against the stopped daemon's service (its
    // stores stay open), the codec, the journal and the engine. ----
    std::vector<double> service_hit_us, service_miss_ms;
    for (int i = 0; i < 200; ++i) {
        const std::size_t h = rng.nextBelow(kHitPoints);
        const std::size_t p = rng.nextBelow(nprog);
        const auto t = Clock::now();
        daemon->service().handle(
            requestFor(hit_points[h], programs()[p]->name(), 1));
        service_hit_us.push_back(1e6 * since(t));
    }
    for (std::size_t p = 0; p < nprog; ++p) {
        const auto t = Clock::now();
        daemon->service().handle(
            requestFor(freshPoint(), programs()[p]->name(), 1));
        service_miss_ms.push_back(1e3 * since(t));
    }
    double codec_ns = 0;
    {
        const serve::Request request =
            requestFor(hit_points[0], programs()[0]->name(), 7);
        serve::Response response;
        response.cacheHit = true;
        response.cells = {expected_hits[0][0]};
        constexpr int kRounds = 20000;
        std::size_t sink = 0;
        std::string error;
        const auto t = Clock::now();
        for (int i = 0; i < kRounds; ++i) {
            serve::Request req_out;
            serve::Response resp_out;
            const std::string req_bytes = serve::encodeRequest(request);
            const std::string resp_bytes = serve::encodeResponse(response);
            sink += serve::decodeRequest(req_bytes, req_out, error);
            sink += serve::decodeResponse(resp_bytes, resp_out, error);
        }
        codec_ns = 1e9 * since(t) / kRounds;
        if (sink != 2 * kRounds)
            report.check(false, "serve: codec round trip failed");
    }
    std::vector<std::uint64_t> keys;
    std::vector<std::vector<core::SweepCell>> cell_rows;
    const std::vector<std::uint64_t> hashes = streamHashes(config);
    for (std::size_t h = 0; h < kHitPoints; ++h) {
        for (std::size_t p = 0; p < nprog; ++p) {
            keys.push_back(core::sweepPointKey(
                hit_points[h], {programs()[p]->name()}, {hashes[p]}));
            cell_rows.push_back({expected_hits[h][p]});
        }
    }
    const JournalProbe journal =
        probeJournal(dir + "/jr", keys, cell_rows, "serve/jprobe", true);
    daemon.reset();
    const Probes probes = runProbes(config, "serve/probe");

    Layers layers;
    layers.setProbes(probes);
    layers.set("core.journal_open_s", journal.openS, "s");
    layers.set("core.journal_load_us", journal.loadUs, "us");
    layers.set("core.journal_store_us", journal.storeUs, "us");
    layers.set("core.journal_flush_s", journal.flushS, "s");
    layers.set("core.journal_bytes", journal.bytes, "bytes");
    // Means, so the parts add up: a hit's due-time latency is the
    // generator's lateness, the idle round trip (socket hops, codec,
    // an empty queue), any extra queue wait, and the service time.
    const double hit_us = 1e3 * mean(traced_hit_ms);
    const double late_us = 1e3 * mean(traced_late_ms);
    const double queue_us =
        tel.histMean("threadpool.serve.", ".queue_wait_ns") / 1e3;
    const double service_us = mean(service_hit_us);
    const double ping = mean(ping_us);
    // What is left is mostly time hits spend inside the daemon
    // waiting for the journal lock a miss holds while it seals, which
    // neither the idle service probe nor the queue histogram sees.
    const double residual =
        (hit_us - late_us - ping - queue_us - service_us) / hit_us;
    printLayerTable("serve_mix (mean traced hit request)", hit_us * 1e-6,
                    {{"generator lateness", late_us * 1e-6},
                     {"idle round trip (ping)", ping * 1e-6},
                     {"  serve.codec (probe)", codec_ns * 1e-9},
                     {"serve.queue_wait (histogram)", queue_us * 1e-6},
                     {"serve.service hit (probe, idle)", service_us * 1e-6},
                     {"  core.journal_load (probe)", journal.loadUs * 1e-6}},
                    residual);
    layers.set("core.residual_frac", residual, "ratio");
    layers.set("vm.runs", tel.counter("vm.runs"), "count");
    const double hits = tel.counter("trace_cache.hits");
    const double misses = tel.counter("trace_cache.misses");
    layers.set("trace.cache_hit_ratio",
               hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
    layers.set("support.pool_queue_wait_us",
               tel.histMean("threadpool.", ".queue_wait_ns") / 1e3, "us");
    layers.set("serve.service_hit_us", service_us, "us");
    layers.set("serve.service_miss_ms", median(service_miss_ms), "ms");
    layers.set("serve.queue_wait_us", queue_us, "us");
    layers.set("serve.transport_us", ping, "us");
    layers.set("serve.codec_ns", codec_ns, "ns");
    layers.set("serve.hit_ratio",
               static_cast<double>(served_hits) /
                   static_cast<double>(std::max<std::size_t>(
                       1, served_hits + evaluations)),
               "ratio");
    layers.set("serve.evaluations", static_cast<double>(evaluations), "count");
    layers.set("serve.rejects", static_cast<double>(rejects), "count");
    layers.set("serve.threads_peak", threads_peak, "count");
    layers.set("serve.vmsize_peak_mb", vmsize_peak, "MB");
    layers.set("serve.gen_late_p99_ms", quantile(late_ms, 0.99), "ms");
    layers.set("serve.hit_p99_us", 1e3 * quantile(hit_ms, 0.99), "us");
    layers.set("serve.miss_p90_ms", quantile(miss_ms, 0.90), "ms");
    layers.set("obs.trace_overhead_pct", overheadPct(hit_ms, traced_hit_ms),
               "%");
    layers.set("peak_rss_mb", rss, "MB");
    layers.into(report);
}

[[noreturn]] void
usage()
{
    std::cerr << "usage: blab_perf --workload "
                 "tables|sweep|serve_mix --seed N "
                 "--seconds S --trace 0|1\n";
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0;
    int trace = -1;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        if (flag == "--workload")
            workload = value;
        else if (flag == "--seed")
            seed = std::stoull(value);
        else if (flag == "--seconds")
            seconds = std::stod(value);
        else if (flag == "--trace")
            trace = std::stoi(value);
        else
            usage();
    }
    if (argc % 2 == 0 || workload.empty() || seconds <= 0 ||
        (trace != 0 && trace != 1))
        usage();

    // Timings from an unoptimized or instrumented build say nothing
    // about the code users run.
#if !defined(NDEBUG) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
    std::cerr << "blab_perf: refusing to report from a debug or sanitizer "
                 "build ("
              << BLAB_PERF_BUILD_TYPE << ")\n";
    return 1;
#endif

    // Settings the library would otherwise take from the environment:
    // every store location, cap, format and job count is set here.
    for (const char *name :
         {"BRANCHLAB_TRACE_CACHE", "BRANCHLAB_TRACE_CACHE_MAX_BYTES",
          "BRANCHLAB_SWEEP_JOURNAL_FORMAT",
          "BRANCHLAB_SWEEP_JOURNAL_MAX_BYTES", "BRANCHLAB_JOBS",
          "BRANCHLAB_TELEMETRY"})
        ::unsetenv(name);
    // Write back what earlier processes left dirty (a build, another
    // workload's stores), so their writeback does not land in this
    // run's window.
    ::sync();
    obs::setEnabled(false);
    std::cerr << "blab_perf: workload=" << workload << " seed=" << seed
              << " seconds=" << seconds << " trace=" << trace
              << " nproc=" << std::thread::hardware_concurrency()
              << " build=" << BLAB_PERF_BUILD_TYPE
              << " jobs(tables/sweep/serve)=" << kTablesJobs << "/"
              << kSweepJobs << "/" << kServeWorkers << "\n";

    Report report;
    try {
        if (workload == "tables")
            runTables(seed, seconds, trace == 1, report);
        else if (workload == "sweep")
            runSweepWorkload(seed, seconds, trace == 1, report);
        else if (workload == "serve_mix")
            runServe(seed, seconds, trace == 1, report);
        else
            usage();
    } catch (const std::exception &failure) {
        std::cerr << "blab_perf: error: " << failure.what() << "\n";
        return 1;
    }
    std::cout << report.json() << std::endl;
    return 0;
}

/**
 * @file
 * Unit tests for profile collection and trace selection.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "helpers.hh"
#include "map_fold_oracle.hh"
#include "profile/profile.hh"
#include "profile/trace_select.hh"
#include "trace/record.hh"
#include "workloads/workload.hh"

namespace branchlab::profile
{
namespace
{

using ir::IrBuilder;
using ir::Opcode;
using ir::Reg;

/** Profile a program over one run and hand everything back. */
struct Profiled
{
    ir::Program program;
    std::unique_ptr<ir::Layout> layout;
    std::unique_ptr<ProgramProfile> profile;
};

Profiled
profileProgram(ir::Program prog, std::vector<ir::Word> input = {})
{
    ir::verifyProgramOrDie(prog);
    Profiled result{std::move(prog), nullptr, nullptr};
    result.layout = std::make_unique<ir::Layout>(result.program);
    result.profile = std::make_unique<ProgramProfile>(result.program,
                                                      *result.layout);
    result.profile->noteRun();
    vm::Machine machine(result.program, *result.layout);
    machine.setSink(result.profile.get());
    if (!input.empty())
        machine.setInput(0, std::move(input));
    machine.run();
    return result;
}

TEST(BranchCounts, MajorityAndDominantTarget)
{
    BranchCounts counts;
    counts.taken = 3;
    counts.notTaken = 1;
    counts.nextCounts[100] = 3;
    counts.nextCounts[101] = 1;
    EXPECT_TRUE(counts.majorityTaken());
    EXPECT_EQ(counts.dominantTarget(), 100u);
    EXPECT_EQ(counts.executions(), 4u);

    BranchCounts empty;
    EXPECT_FALSE(empty.majorityTaken());
    EXPECT_EQ(empty.dominantTarget(), ir::kNoAddr);
}

TEST(ProgramProfile, CountsCountdownBranchesExactly)
{
    const Profiled p = profileProgram(test::buildCountdown(5));
    // The bottom-test conditional: 4 taken, 1 not-taken.
    const ir::Function &fn = p.program.function(0);
    bool found = false;
    for (const ir::BasicBlock &block : fn.blocks()) {
        if (!block.terminator().isConditional())
            continue;
        const ir::Addr addr =
            p.layout->blockAddr(0, block.id()) + block.size() - 1;
        const BranchCounts &counts = p.profile->branchCounts(addr);
        if (counts.executions() == 0)
            continue;
        found = true;
        EXPECT_EQ(counts.taken, 4u);
        EXPECT_EQ(counts.notTaken, 1u);
        EXPECT_TRUE(counts.majorityTaken());
    }
    EXPECT_TRUE(found);
}

TEST(ProgramProfile, BlockWeightsMatchExecutionCounts)
{
    const Profiled p = profileProgram(test::buildCountdown(5));
    const ir::Function &fn = p.program.function(0);
    // Sum of weights of conditional-terminated blocks must equal the
    // loop trip count; the halt block weight equals the run count.
    for (const ir::BasicBlock &block : fn.blocks()) {
        const std::uint64_t weight =
            p.profile->blockWeight(0, block.id());
        if (block.terminator().op == Opcode::Halt) {
            EXPECT_EQ(weight, 1u);
        }
        if (block.terminator().isConditional()) {
            EXPECT_EQ(weight, 5u);
        }
    }
}

TEST(ProgramProfile, OutArcsSplitConditionalWeights)
{
    const Profiled p = profileProgram(test::buildCountdown(5));
    const ir::Function &fn = p.program.function(0);
    for (const ir::BasicBlock &block : fn.blocks()) {
        if (!block.terminator().isConditional())
            continue;
        if (p.profile->blockWeight(0, block.id()) == 0)
            continue;
        const std::vector<Arc> arcs = p.profile->outArcs(0, block.id());
        ASSERT_EQ(arcs.size(), 2u);
        std::uint64_t total = 0;
        for (const Arc &arc : arcs)
            total += arc.weight;
        EXPECT_EQ(total, 5u);
    }
}

TEST(ProgramProfile, CallArcGoesToContinuation)
{
    const Profiled p = profileProgram(test::buildFactorial(4));
    const ir::FuncId main_id = p.program.findFunction("main");
    const ir::Function &fn = p.program.function(main_id);
    bool found = false;
    for (const ir::BasicBlock &block : fn.blocks()) {
        if (block.terminator().op != Opcode::Call)
            continue;
        const auto arcs = p.profile->outArcs(main_id, block.id());
        ASSERT_EQ(arcs.size(), 1u);
        EXPECT_EQ(arcs[0].to, block.terminator().next);
        EXPECT_EQ(arcs[0].weight, 1u);
        found = true;
    }
    EXPECT_TRUE(found);
}

TEST(ProgramProfile, LikelyMapReflectsMajorityAndTargets)
{
    const Profiled p = profileProgram(test::buildCountdown(5));
    const predict::LikelyMap map = p.profile->buildLikelyMap();
    EXPECT_FALSE(map.empty());
    // Every recorded entry has a dominant target.
    for (const auto &[pc, info] : map)
        EXPECT_NE(info.dominantTarget, ir::kNoAddr);
}

TEST(ProgramProfile, UnexecutedBranchesHaveZeroCounts)
{
    const Profiled p = profileProgram(test::buildCountdown(1));
    const BranchCounts &counts = p.profile->branchCounts(0xdeadbeef);
    EXPECT_EQ(counts.executions(), 0u);
}

// ---------------------------------------------------------------------
// The flat fold against the map-fold oracle.
// ---------------------------------------------------------------------

/** A flat profile and the map oracle, fed the same events. */
struct FoldPair
{
    FoldPair(const ir::Program &program, const ir::Layout &layout)
        : flat(program, layout), oracle(program, layout)
    {}

    void
    onBranch(const trace::BranchEvent &event)
    {
        flat.onBranch(event);
        oracle.onBranch(event);
    }

    void
    noteRun()
    {
        flat.noteRun();
        oracle.noteRun();
    }

    ProgramProfile flat;
    test::MapFoldOracle oracle;
};

bool
sameCounts(const BranchCounts &a, const BranchCounts &b)
{
    return a.taken == b.taken && a.notTaken == b.notTaken &&
           a.nextCounts == b.nextCounts;
}

bool
sameArcs(const std::vector<Arc> &a, const std::vector<Arc> &b)
{
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](const Arc &x, const Arc &y) {
                          return x.from == y.from && x.to == y.to &&
                                 x.weight == y.weight;
                      });
}

bool
sameLikely(const predict::LikelyMap &a, const predict::LikelyMap &b)
{
    if (a.size() != b.size())
        return false;
    for (const auto &[pc, info] : a) {
        const auto it = b.find(pc);
        if (it == b.end() || it->second.likelyTaken != info.likelyTaken ||
            it->second.dominantTarget != info.dominantTarget)
            return false;
    }
    return true;
}

/** Every query of @p flat against the oracle: whole path map, every
 *  pc the oracle or the layout knows, every block's arcs and weight,
 *  and the likely map. */
void
expectFoldsAgree(const ProgramProfile &flat,
                 const test::MapFoldOracle &oracle,
                 const std::string &what)
{
    SCOPED_TRACE(what);
    const auto &paths = flat.allPathCounts();
    const auto &want_paths = oracle.allPathCounts();
    ASSERT_EQ(paths.size(), want_paths.size());
    auto want = want_paths.begin();
    for (const auto &[key, counts] : paths) {
        ASSERT_EQ(key, want->first);
        ASSERT_TRUE(sameCounts(counts, want->second))
            << "path " << key.first << " <- " << key.second;
        EXPECT_TRUE(sameCounts(flat.pathCounts(key.first, key.second),
                               want->second));
        ++want;
    }
    for (const auto &[pc, counts] : oracle.allCounts())
        ASSERT_TRUE(sameCounts(flat.branchCounts(pc), counts)) << pc;
    const ir::Layout &layout = flat.layout();
    for (ir::Addr pc = ir::kCodeBase; pc < layout.codeEnd(); ++pc) {
        ASSERT_TRUE(
            sameCounts(flat.branchCounts(pc), oracle.branchCounts(pc)))
            << pc;
    }
    const ir::Program &program = flat.program();
    for (ir::FuncId f = 0; f < program.numFunctions(); ++f) {
        for (ir::BlockId b = 0; b < program.function(f).numBlocks(); ++b) {
            EXPECT_EQ(flat.blockWeight(f, b), oracle.blockWeight(f, b));
            EXPECT_TRUE(sameArcs(flat.outArcs(f, b), oracle.outArcs(f, b)))
                << "func " << f << " block " << b;
        }
    }
    EXPECT_TRUE(sameLikely(flat.buildLikelyMap(), oracle.likelyMap()));
}

/** Run @p workload's inputs into @p sink, noting each run first. */
template <typename Sink>
void
runInputs(const ir::Program &prog, const ir::Layout &layout,
          const std::vector<workloads::WorkloadInput> &inputs,
          FoldPair &fold, Sink &sink)
{
    for (const workloads::WorkloadInput &input : inputs) {
        fold.noteRun();
        vm::Machine machine(prog, layout);
        for (std::size_t chan = 0; chan < input.channels.size(); ++chan)
            machine.setInput(static_cast<int>(chan), input.channels[chan]);
        machine.setSink(&sink);
        machine.run();
    }
}

TEST(FlatFold, MatchesMapFoldOnEveryWorkload)
{
    Rng rng(11);
    for (const workloads::Workload *workload :
         workloads::allWorkloads()) {
        const ir::Program prog = workload->buildProgram();
        ir::verifyProgramOrDie(prog);
        const ir::Layout layout(prog);
        FoldPair fold(prog, layout);
        trace::FanoutSink both;
        both.addSink(&fold.flat);
        both.addSink(&fold.oracle);
        runInputs(prog, layout, workload->makeInputs(rng, 2), fold, both);
        expectFoldsAgree(fold.flat, fold.oracle, workload->name());

        // Events after the first query still count.
        runInputs(prog, layout, workload->makeInputs(rng, 1), fold, both);
        expectFoldsAgree(fold.flat, fold.oracle,
                         workload->name() + " after a query");
    }
}

TEST(FlatFold, SpillsThirdAndLaterNextPcs)
{
    // A Ret-like branch returning to five sites from two callers:
    // three and more distinct next pcs per pc and per path.
    const ir::Program prog = test::buildFactorial(3);
    const ir::Layout layout(prog);
    ASSERT_GT(layout.totalSize(), 8u);
    FoldPair fold(prog, layout);
    fold.noteRun();
    const ir::Addr ret = ir::kCodeBase + 2;
    const ir::Addr callers[] = {ir::kCodeBase, ir::kCodeBase + 1};
    for (unsigned i = 0; i < 40; ++i) {
        trace::BranchEvent call;
        call.pc = callers[i % 2];
        call.nextPc = ret;
        call.op = Opcode::Call;
        fold.onBranch(call);
        trace::BranchEvent back;
        back.pc = ret;
        back.nextPc = ir::kCodeBase + 3 + (i * 7) % 5;
        back.op = Opcode::Ret;
        fold.onBranch(back);
    }
    EXPECT_EQ(fold.flat.branchCounts(ret).nextCounts.size(), 5u);
    expectFoldsAgree(fold.flat, fold.oracle, "spill");
}

TEST(FlatFold, OutOfLayoutAndNoNextPcEventsUseTheMaps)
{
    const ir::Program prog = test::buildCountdown(3);
    const ir::Layout layout(prog);
    FoldPair fold(prog, layout);
    fold.noteRun();
    // Pcs far past the layout.
    const trace::SoaTrace tall = test::tallPcStream();
    for (std::size_t i = 0; i < tall.size(); ++i)
        fold.onBranch(tall.event(i));
    // An in-layout pc seen flat, with no next pc, and after an
    // out-of-layout predecessor -- each a different fold route for
    // the same pc and path.
    const ir::Addr pc = ir::kCodeBase + 1;
    trace::BranchEvent event;
    event.pc = pc;
    event.nextPc = ir::kCodeBase;
    fold.onBranch(event);
    event.nextPc = ir::kNoAddr;
    fold.onBranch(event);
    event.pc = 0xdeadbeef;
    event.nextPc = pc;
    fold.onBranch(event);
    event.pc = pc;
    event.nextPc = ir::kCodeBase;
    fold.onBranch(event);
    event.taken = false;
    fold.onBranch(event);
    EXPECT_EQ(fold.flat.branchCounts(pc).executions(), 4u);
    expectFoldsAgree(fold.flat, fold.oracle, "out of layout");
}

TEST(FlatFold, RandomStreamsMatchBeforeAndAfterAQuery)
{
    // Seeded mix of in-layout, out-of-layout and kNoAddr pcs and next
    // pcs, with run boundaries: every fold route, interleaved.
    const ir::Program prog = test::buildFactorial(3);
    const ir::Layout layout(prog);
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        Rng rng(seed);
        FoldPair fold(prog, layout);
        const auto pick = [&]() -> ir::Addr {
            const std::uint64_t r = rng.nextBelow(20);
            if (r == 0)
                return ir::kNoAddr;
            if (r == 1)
                return layout.codeEnd() + rng.nextBelow(3);
            if (r == 2)
                return rng.nextBelow(ir::kCodeBase);
            return ir::kCodeBase + rng.nextBelow(layout.totalSize());
        };
        const auto feed = [&](unsigned events) {
            for (unsigned i = 0; i < events; ++i) {
                if (rng.nextBelow(100) == 0)
                    fold.noteRun();
                trace::BranchEvent event;
                event.pc = pick();
                event.nextPc = pick();
                event.taken = rng.nextBool();
                fold.onBranch(event);
            }
        };
        fold.noteRun();
        feed(5000);
        expectFoldsAgree(fold.flat, fold.oracle, "before a query");
        feed(1000);
        expectFoldsAgree(fold.flat, fold.oracle, "after a query");
    }
}

TEST(FlatFold, ConcurrentConstQueriesOnAFreshFold)
{
    // Four readers race the first query, which builds the maps; each
    // must see the whole fold (run under TSan in CI).
    const workloads::Workload &workload = *workloads::allWorkloads()[0];
    const ir::Program prog = workload.buildProgram();
    ir::verifyProgramOrDie(prog);
    const ir::Layout layout(prog);
    FoldPair fold(prog, layout);
    trace::FanoutSink both;
    both.addSink(&fold.flat);
    both.addSink(&fold.oracle);
    Rng rng(5);
    runInputs(prog, layout, workload.makeInputs(rng, 1), fold, both);

    const ProgramProfile &flat = fold.flat;
    struct Seen
    {
        std::size_t paths = 0;
        std::uint64_t executions = 0;
        std::size_t arcs = 0;
        std::size_t likely = 0;
    };
    std::vector<Seen> seen(4);
    std::vector<std::thread> readers;
    for (Seen &out : seen) {
        readers.emplace_back([&flat, &prog, &out] {
            out.paths = flat.allPathCounts().size();
            for (ir::Addr pc = ir::kCodeBase; pc < flat.layout().codeEnd();
                 ++pc)
                out.executions += flat.branchCounts(pc).executions();
            for (ir::FuncId f = 0; f < prog.numFunctions(); ++f) {
                for (ir::BlockId b = 0; b < prog.function(f).numBlocks();
                     ++b)
                    out.arcs += flat.outArcs(f, b).size();
            }
            out.likely = flat.buildLikelyMap().size();
        });
    }
    for (std::thread &reader : readers)
        reader.join();
    std::uint64_t executions = 0;
    for (const auto &[pc, counts] : fold.oracle.allCounts())
        executions += counts.executions();
    for (const Seen &out : seen) {
        EXPECT_EQ(out.paths, fold.oracle.allPathCounts().size());
        EXPECT_EQ(out.executions, executions);
        EXPECT_EQ(out.arcs, seen[0].arcs);
        EXPECT_EQ(out.likely, fold.oracle.allCounts().size());
    }
    expectFoldsAgree(flat, fold.oracle, workload.name());
}

// ---------------------------------------------------------------------
// Trace selection.
// ---------------------------------------------------------------------

TEST(TraceSelect, PartitionsEveryHelperProgram)
{
    for (ir::Word n : {1, 5, 20}) {
        const Profiled p = profileProgram(test::buildCountdown(n));
        const TraceSelector selector(*p.profile);
        const std::vector<Trace> traces = selector.selectProgram();
        EXPECT_EQ(checkTraces(p.program, traces), "");
    }
    const Profiled p = profileProgram(test::buildFactorial(6));
    const TraceSelector selector(*p.profile);
    EXPECT_EQ(checkTraces(p.program, selector.selectProgram()), "");
}

TEST(TraceSelect, PartitionsEveryWorkloadProgram)
{
    // The heavyweight well-formedness sweep: select traces for all
    // ten paper benchmarks after a real profiling run.
    Rng rng(7);
    for (const workloads::Workload *workload :
         workloads::allWorkloads()) {
        ir::Program prog = workload->buildProgram();
        ir::verifyProgramOrDie(prog);
        const ir::Layout layout(prog);
        ProgramProfile profile(prog, layout);
        profile.noteRun();
        const auto inputs = workload->makeInputs(rng, 1);
        vm::Machine machine(prog, layout);
        for (std::size_t chan = 0; chan < inputs[0].channels.size();
             ++chan) {
            machine.setInput(static_cast<int>(chan),
                             inputs[0].channels[chan]);
        }
        machine.setSink(&profile);
        machine.run();

        const TraceSelector selector(profile);
        EXPECT_EQ(checkTraces(prog, selector.selectProgram()), "")
            << workload->name();
    }
}

TEST(TraceSelect, HotLoopFormsOneTrace)
{
    const Profiled p = profileProgram(test::buildCountdown(100));
    const TraceSelector selector(*p.profile);
    const std::vector<Trace> traces = selector.selectFunction(0);
    // The hottest trace is the loop body and it leads the layout.
    ASSERT_FALSE(traces.empty());
    EXPECT_GE(traces.front().weight, 100u);
    for (std::size_t i = 1; i < traces.size(); ++i)
        EXPECT_LE(traces[i].weight, traces[i - 1].weight);
}

TEST(TraceSelect, ThresholdOneBreaksMixedArcs)
{
    // A 50/50 branch cannot be grown over at threshold 1.0.
    ir::Program prog("mix");
    IrBuilder b(prog);
    b.beginFunction("main");
    const Reg i = b.newReg();
    const Reg acc = b.newReg();
    b.ldiTo(acc, 0);
    b.forRangeImm(i, 0, 10, [&] {
        const Reg r = b.remi(i, 2);
        b.ifThenElse([&] { return IrBuilder::cmpEqi(r, 0); },
                     [&] { b.emitBinaryImmTo(Opcode::Add, acc, acc, 1); },
                     [&] { b.emitBinaryImmTo(Opcode::Add, acc, acc, 2); });
    });
    b.out(acc, 1);
    b.halt();
    b.endFunction();

    Profiled p = profileProgram(std::move(prog));
    TraceSelectConfig strict;
    strict.minArcProbability = 1.0;
    const TraceSelector strict_selector(*p.profile, strict);
    TraceSelectConfig loose;
    loose.minArcProbability = 0.4;
    const TraceSelector loose_selector(*p.profile, loose);
    // Stricter thresholds can only produce more (shorter) traces.
    EXPECT_GE(strict_selector.selectFunction(0).size(),
              loose_selector.selectFunction(0).size());
    EXPECT_EQ(checkTraces(p.program, strict_selector.selectProgram()),
              "");
}

TEST(TraceSelect, ColdBlocksBecomeTraces)
{
    const Profiled p = profileProgram(test::buildFactorial(1));
    // fact(1) never recurses: the recursive path is cold but must
    // still appear in exactly one trace.
    const TraceSelector selector(*p.profile);
    EXPECT_EQ(checkTraces(p.program, selector.selectProgram()), "");
}

TEST(TraceSelect, BackwardGrowthCanBeDisabled)
{
    const Profiled p = profileProgram(test::buildCountdown(50));
    TraceSelectConfig no_back;
    no_back.growBackward = false;
    const TraceSelector selector(*p.profile, no_back);
    EXPECT_EQ(checkTraces(p.program, selector.selectProgram()), "");
}

} // namespace
} // namespace branchlab::profile

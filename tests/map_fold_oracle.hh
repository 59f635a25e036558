/**
 * @file
 * The map-based profile fold, kept as the tests' oracle for
 * profile::ProgramProfile's flat fold: every event is tallied straight
 * into a per-pc map entry and a per-(pc, prevPc) map entry, each with
 * a next-pc map, and every query reads those maps. ProgramProfile must
 * agree with it on every count, arc and likely bit.
 */

#ifndef BRANCHLAB_TESTS_MAP_FOLD_ORACLE_HH
#define BRANCHLAB_TESTS_MAP_FOLD_ORACLE_HH

#include <map>
#include <utility>
#include <vector>

#include "profile/profile.hh"

namespace branchlab::test
{

class MapFoldOracle : public trace::TraceSink
{
  public:
    MapFoldOracle(const ir::Program &program, const ir::Layout &layout)
        : prog_(program), layout_(layout)
    {}

    void
    onBranch(const trace::BranchEvent &event) override
    {
        tally(counts_[event.pc], event);
        if (prevPc_ != ir::kNoAddr)
            tally(pathCounts_[{event.pc, prevPc_}], event);
        prevPc_ = event.pc;
    }

    void
    noteRun()
    {
        ++runs_;
        prevPc_ = ir::kNoAddr;
    }

    /** Every executed pc's counts, ordered by pc. */
    const std::map<ir::Addr, profile::BranchCounts> &
    allCounts() const
    {
        return counts_;
    }

    const std::map<std::pair<ir::Addr, ir::Addr>, profile::BranchCounts> &
    allPathCounts() const
    {
        return pathCounts_;
    }

    const profile::BranchCounts &
    branchCounts(ir::Addr pc) const
    {
        const auto it = counts_.find(pc);
        return it == counts_.end() ? zero_ : it->second;
    }

    std::uint64_t
    blockWeight(ir::FuncId func, ir::BlockId block) const
    {
        const ir::BasicBlock &bb = prog_.function(func).block(block);
        if (bb.terminator().op == ir::Opcode::Halt)
            return runs_;
        return branchCounts(terminatorAddr(func, block)).executions();
    }

    std::vector<profile::Arc>
    outArcs(ir::FuncId func, ir::BlockId block) const
    {
        const ir::Instruction &term =
            prog_.function(func).block(block).terminator();
        const profile::BranchCounts &counts =
            branchCounts(terminatorAddr(func, block));
        std::vector<profile::Arc> arcs;
        switch (term.op) {
          case ir::Opcode::Jmp:
            arcs.push_back({block, term.target, counts.taken});
            break;
          case ir::Opcode::JTab:
            for (const auto &[addr, count] : counts.nextCounts)
                arcs.push_back({block, layout_.locate(addr).block, count});
            break;
          case ir::Opcode::Call:
          case ir::Opcode::CallInd:
            arcs.push_back({block, term.next, counts.executions()});
            break;
          case ir::Opcode::Ret:
          case ir::Opcode::Halt:
            break;
          default:
            arcs.push_back({block, term.target, counts.taken});
            if (term.next != term.target)
                arcs.push_back({block, term.next, counts.notTaken});
            break;
        }
        return arcs;
    }

    predict::LikelyMap
    likelyMap() const
    {
        predict::LikelyMap map;
        for (const auto &[pc, counts] : counts_) {
            map.emplace(pc, predict::LikelyInfo{counts.majorityTaken(),
                                                counts.dominantTarget()});
        }
        return map;
    }

  private:
    static void
    tally(profile::BranchCounts &counts, const trace::BranchEvent &event)
    {
        if (event.taken)
            ++counts.taken;
        else
            ++counts.notTaken;
        ++counts.nextCounts[event.nextPc];
    }

    ir::Addr
    terminatorAddr(ir::FuncId func, ir::BlockId block) const
    {
        return layout_.blockAddr(func, block) +
               prog_.function(func).block(block).size() - 1;
    }

    const ir::Program &prog_;
    const ir::Layout &layout_;
    std::map<ir::Addr, profile::BranchCounts> counts_;
    std::map<std::pair<ir::Addr, ir::Addr>, profile::BranchCounts>
        pathCounts_;
    ir::Addr prevPc_ = ir::kNoAddr;
    std::uint64_t runs_ = 0;
    profile::BranchCounts zero_;
};

} // namespace branchlab::test

#endif // BRANCHLAB_TESTS_MAP_FOLD_ORACLE_HH

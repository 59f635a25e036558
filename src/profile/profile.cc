#include "profile/profile.hh"

#include <bit>

#include "support/logging.hh"

namespace branchlab::profile
{

using ir::Addr;
using ir::BlockId;
using ir::FuncId;
using ir::Opcode;

Addr
BranchCounts::dominantTarget() const
{
    Addr best = ir::kNoAddr;
    std::uint64_t best_count = 0;
    for (const auto &[addr, count] : nextCounts) {
        if (count > best_count) {
            best = addr;
            best_count = count;
        }
    }
    return best;
}

namespace
{

/** Count one event into a BranchCounts map entry. */
void
tallyInto(BranchCounts &counts, const trace::BranchEvent &event)
{
    if (event.taken)
        ++counts.taken;
    else
        ++counts.notTaken;
    ++counts.nextCounts[event.nextPc];
}

} // namespace

void
ProgramProfile::mergeInto(BranchCounts &counts, const FlatSlot &slot)
{
    counts.taken += slot.taken;
    counts.notTaken += slot.notTaken;
    for (int i = 0; i < 2; ++i) {
        if (slot.nextCount[i] != 0)
            counts.nextCounts[ir::kCodeBase + slot.next[i]] +=
                slot.nextCount[i];
    }
}

void
ProgramProfile::FlatTable::grow()
{
    const std::vector<Cell> old = std::move(cells_);
    cells_.assign(old.empty() ? 1024 : 2 * old.size(), Cell{});
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(cells_.size()));
    for (const Cell &cell : old) {
        if (cell.key == kEmpty)
            continue;
        std::size_t i = home(cell.key);
        while (cells_[i].key != kEmpty)
            i = (i + 1) & (cells_.size() - 1);
        cells_[i] = cell;
    }
}

ProgramProfile::ProgramProfile(const ir::Program &program,
                               const ir::Layout &layout)
    : prog_(program), layout_(layout),
      // Offsets must pack two to a 64-bit key with the all-ones key
      // left free; a larger image folds through the maps.
      flatLimit_(layout.totalSize() < FlatSlot::kNoNext
                     ? layout.totalSize()
                     : 0),
      slots_(flatLimit_)
{}

void
ProgramProfile::onBranch(const trace::BranchEvent &event)
{
    // Unsigned wrap sends every address below kCodeBase (kNoAddr
    // included) past the limit too.
    const std::uint64_t pc = event.pc - ir::kCodeBase;
    const std::uint64_t next = event.nextPc - ir::kCodeBase;
    const std::uint64_t prev = prevPc_ - ir::kCodeBase;
    if (pc < flatLimit_ && next < flatLimit_) {
        const auto next32 = static_cast<std::uint32_t>(next);
        tally(pc, event.taken, next32);
        if (prev < flatLimit_) {
            const std::uint64_t slot =
                paths_.findOrInsert(packKey(pc, prev), slots_.size());
            if (slot == slots_.size())
                slots_.emplace_back();
            tally(slot, event.taken, next32);
        } else if (prevPc_ != ir::kNoAddr) {
            tallyInto(pathCounts_[{event.pc, prevPc_}], event);
        }
    } else {
        tallyInto(counts_[event.pc], event);
        if (prevPc_ != ir::kNoAddr)
            tallyInto(pathCounts_[{event.pc, prevPc_}], event);
    }
    prevPc_ = event.pc;
}

void
ProgramProfile::buildMaps() const
{
    std::call_once(*built_, [this] {
        // Each flat slot's map entry, so spilled next pcs find it.
        std::vector<BranchCounts *> target(slots_.size(), nullptr);
        for (std::uint64_t pc = 0; pc < flatLimit_; ++pc) {
            const FlatSlot &slot = slots_[pc];
            if (slot.taken + slot.notTaken == 0)
                continue;
            target[pc] = &counts_[ir::kCodeBase + pc];
            mergeInto(*target[pc], slot);
        }
        paths_.forEach([&](std::uint64_t key, std::uint64_t index) {
            target[index] = &pathCounts_[{ir::kCodeBase + (key >> 32),
                                          ir::kCodeBase +
                                              (key & 0xffffffffu)}];
            mergeInto(*target[index], slots_[index]);
        });
        spill_.forEach([&](std::uint64_t key, std::uint64_t count) {
            target[key >> 32]->nextCounts[ir::kCodeBase +
                                          (key & 0xffffffffu)] += count;
        });
        flatLimit_ = 0;
    });
}

const BranchCounts &
ProgramProfile::branchCounts(Addr pc) const
{
    buildMaps();
    const auto it = counts_.find(pc);
    return it == counts_.end() ? zero_ : it->second;
}

const BranchCounts &
ProgramProfile::pathCounts(Addr pc, Addr prevPc) const
{
    buildMaps();
    const auto it = pathCounts_.find({pc, prevPc});
    return it == pathCounts_.end() ? zero_ : it->second;
}

const std::map<std::pair<Addr, Addr>, BranchCounts> &
ProgramProfile::allPathCounts() const
{
    buildMaps();
    return pathCounts_;
}

Addr
ProgramProfile::terminatorAddr(FuncId func, BlockId block) const
{
    const ir::BasicBlock &bb = prog_.function(func).block(block);
    blab_assert(bb.isSealed(), "profiling an unsealed block");
    return layout_.blockAddr(func, block) + bb.size() - 1;
}

std::uint64_t
ProgramProfile::blockWeight(FuncId func, BlockId block) const
{
    const ir::BasicBlock &bb = prog_.function(func).block(block);
    const ir::Instruction &term = bb.terminator();
    if (term.op == Opcode::Halt)
        return runs_;
    return branchCounts(terminatorAddr(func, block)).executions();
}

std::vector<Arc>
ProgramProfile::outArcs(FuncId func, BlockId block) const
{
    const ir::Function &fn = prog_.function(func);
    const ir::BasicBlock &bb = fn.block(block);
    const ir::Instruction &term = bb.terminator();
    const BranchCounts &counts = branchCounts(terminatorAddr(func, block));

    std::vector<Arc> arcs;
    switch (term.op) {
      case Opcode::Jmp:
        arcs.push_back(Arc{block, term.target, counts.taken});
        break;
      case Opcode::JTab: {
        // One arc per observed target; resolve addresses to blocks.
        for (const auto &[addr, count] : counts.nextCounts) {
            const ir::CodeLocation loc = layout_.locate(addr);
            blab_assert(loc.func == func && loc.index == 0,
                        "jump-table target is not a local block start");
            arcs.push_back(Arc{block, loc.block, count});
        }
        break;
      }
      case Opcode::Call:
      case Opcode::CallInd:
        // The continuation runs once per (returning) call.
        arcs.push_back(Arc{block, term.next, counts.executions()});
        break;
      case Opcode::Ret:
      case Opcode::Halt:
        break;
      default: {
        blab_assert(term.isConditional(), "unexpected terminator");
        arcs.push_back(Arc{block, term.target, counts.taken});
        if (term.next != term.target)
            arcs.push_back(Arc{block, term.next, counts.notTaken});
        break;
      }
    }
    return arcs;
}

predict::LikelyMap
ProgramProfile::buildLikelyMap() const
{
    buildMaps();
    predict::LikelyMap map;
    map.reserve(counts_.size());
    for (const auto &[pc, counts] : counts_) {
        predict::LikelyInfo info;
        info.likelyTaken = counts.majorityTaken();
        info.dominantTarget = counts.dominantTarget();
        map.emplace(pc, info);
    }
    return map;
}

} // namespace branchlab::profile

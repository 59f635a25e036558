/**
 * @file
 * Profile collection: per-branch direction/target counts and
 * per-block/arc execution weights, gathered from the VM's branch
 * stream. This is the "program is first compiled into an executable
 * intermediate form with probes" step of the Forward Semantic (paper
 * section 2.2); we observe terminators instead of inserting probes,
 * which yields identical counts.
 */

#ifndef BRANCHLAB_PROFILE_PROFILE_HH
#define BRANCHLAB_PROFILE_PROFILE_HH

#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ir/layout.hh"
#include "ir/program.hh"
#include "predict/profile_predictor.hh"
#include "trace/event.hh"

namespace branchlab::profile
{

/** Dynamic counts for one static branch instruction. */
struct BranchCounts
{
    std::uint64_t taken = 0;
    std::uint64_t notTaken = 0;
    /** Dynamic next-PC distribution (targets of taken executions and,
     *  for conditionals, the fallthrough address of not-taken ones). */
    std::map<ir::Addr, std::uint64_t> nextCounts;

    std::uint64_t executions() const { return taken + notTaken; }
    bool majorityTaken() const { return taken > notTaken; }
    /** Most frequent dynamic target (kNoAddr when never executed). */
    ir::Addr dominantTarget() const;
};

/**
 * A weighted arc of the control-flow graph, local to a function.
 */
struct Arc
{
    ir::BlockId from;
    ir::BlockId to;
    std::uint64_t weight;
};

/**
 * Profile of one program over one or more runs. Attach as a trace
 * sink during the profiling runs, then query.
 *
 * The fold is flat: an event whose pc and next pc lie inside the
 * layout lands in a dense per-pc slot (direction counts plus its
 * first two distinct next pcs inline) and, for its (pc, prevPc) path,
 * in a slot found through an open-addressing table keyed by both
 * code offsets in one 64-bit word. Only a slot's third and later
 * next pcs (Ret, JTab, CallInd) spill, to a second such table. Events
 * outside the layout, or with no next pc, are tallied straight into
 * the BranchCounts maps. The first query merges the flat state into
 * those maps exactly once (safe under concurrent const readers);
 * every later event goes to the maps directly.
 */
class ProgramProfile : public trace::TraceSink
{
  public:
    ProgramProfile(const ir::Program &program, const ir::Layout &layout);

    void onBranch(const trace::BranchEvent &event) override;

    /** Record that a run started (weights the entry block). */
    void
    noteRun()
    {
        ++runs_;
        prevPc_ = ir::kNoAddr;
    }

    std::uint64_t runs() const { return runs_; }

    /** Counts for the branch at @p pc (zeros when never executed). */
    const BranchCounts &branchCounts(ir::Addr pc) const;

    /**
     * Counts for the branch at @p pc restricted to executions whose
     * immediately preceding branch event of the same run was at
     * @p prevPc (zeros when the pair never executed). Every block
     * transition is a terminator execution, so the previous event
     * identifies the dynamic predecessor block -- the path
     * correlation the superblock pass duplicates for.
     */
    const BranchCounts &pathCounts(ir::Addr pc, ir::Addr prevPc) const;

    /** Every recorded (pc, prevPc) tally, ordered by pc then prevPc
     *  (for passes that enumerate a branch's entry contexts). */
    const std::map<std::pair<ir::Addr, ir::Addr>, BranchCounts> &
    allPathCounts() const;

    /**
     * Execution count of a block: the execution count of its
     * terminator (every block ends in one). Blocks ending in Halt use
     * the recorded run count.
     */
    std::uint64_t blockWeight(ir::FuncId func, ir::BlockId block) const;

    /**
     * Weighted intra-function arcs leaving @p block:
     *  - conditional: taken-target and fallthrough arcs;
     *  - Jmp: the target arc;
     *  - JTab: one arc per observed dynamic target;
     *  - Call/CallInd: the continuation arc (the callee is another
     *    function; trace selection is function-local);
     *  - Ret/Halt: none.
     */
    std::vector<Arc> outArcs(ir::FuncId func, ir::BlockId block) const;

    /**
     * Build the likely map the Forward Semantic compiles into the
     * binary: per conditional branch the majority direction, per
     * branch the dominant dynamic target.
     */
    predict::LikelyMap buildLikelyMap() const;

    const ir::Program &program() const { return prog_; }
    const ir::Layout &layout() const { return layout_; }

  private:
    /** The flat tally of one pc or one (pc, prevPc) path. Next pcs
     *  are code offsets; kNoNext marks an unused inline pair. */
    struct FlatSlot
    {
        static constexpr std::uint32_t kNoNext = ~std::uint32_t{0};

        std::uint64_t taken = 0;
        std::uint64_t notTaken = 0;
        std::uint64_t nextCount[2] = {0, 0};
        std::uint32_t next[2] = {kNoNext, kNoNext};
    };

    /**
     * Open-addressing (linear probing) map from a 64-bit key to a
     * 64-bit value. Keys are two code offsets packed high/low, so the
     * all-ones key never occurs and marks an empty cell.
     */
    class FlatTable
    {
      public:
        static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

        /** The value of @p key, inserted as @p fresh when absent. */
        std::uint64_t &
        findOrInsert(std::uint64_t key, std::uint64_t fresh)
        {
            if (2 * (used_ + 1) > cells_.size())
                grow();
            std::size_t i = home(key);
            while (cells_[i].key != key) {
                if (cells_[i].key == kEmpty) {
                    cells_[i] = Cell{key, fresh};
                    ++used_;
                    break;
                }
                i = (i + 1) & (cells_.size() - 1);
            }
            return cells_[i].value;
        }

        /** Visit every (key, value), in no particular order. */
        template <typename Fn>
        void
        forEach(Fn &&fn) const
        {
            for (const Cell &cell : cells_) {
                if (cell.key != kEmpty)
                    fn(cell.key, cell.value);
            }
        }

      private:
        struct Cell
        {
            std::uint64_t key = kEmpty;
            std::uint64_t value = 0;
        };

        std::size_t
        home(std::uint64_t key) const
        {
            // Fibonacci hashing: the product's high bits mix both
            // packed offsets.
            return static_cast<std::size_t>(
                (key * 0x9e3779b97f4a7c15ull) >> shift_);
        }

        void grow();

        std::vector<Cell> cells_;
        std::size_t used_ = 0;
        unsigned shift_ = 64;
    };

    /** Pack two code offsets into one FlatTable key. */
    static std::uint64_t
    packKey(std::uint64_t high, std::uint64_t low)
    {
        return high << 32 | low;
    }

    /** Count one execution into flat slot @p slot. */
    void
    tally(std::uint64_t slot, bool taken, std::uint32_t next)
    {
        FlatSlot &s = slots_[slot];
        ++(taken ? s.taken : s.notTaken);
        for (int i = 0; i < 2; ++i) {
            if (s.next[i] == next || s.next[i] == FlatSlot::kNoNext) {
                s.next[i] = next;
                ++s.nextCount[i];
                return;
            }
        }
        ++spill_.findOrInsert(packKey(slot, next), 0);
    }

    /** Add a flat slot's direction counts and inline next pcs to
     *  @p counts (its spilled next pcs are added separately). */
    static void mergeInto(BranchCounts &counts, const FlatSlot &slot);

    /** Merge the flat state into the maps, once (see class comment). */
    void buildMaps() const;

    /** Address of a block's terminator instruction. */
    ir::Addr terminatorAddr(ir::FuncId func, ir::BlockId block) const;

    const ir::Program &prog_;
    const ir::Layout &layout_;
    /** Events with pc and next pc below this code offset fold flat;
     *  zero once the maps are built. */
    mutable std::uint64_t flatLimit_;
    /** One slot per code offset, then one per flat (pc, prevPc). */
    std::vector<FlatSlot> slots_;
    /** packKey(pc offset, prevPc offset) -> index into slots_. */
    FlatTable paths_;
    /** packKey(slot, next offset) -> count past a slot's inline two. */
    FlatTable spill_;
    std::unique_ptr<std::once_flag> built_ =
        std::make_unique<std::once_flag>();
    mutable std::unordered_map<ir::Addr, BranchCounts> counts_;
    mutable std::map<std::pair<ir::Addr, ir::Addr>, BranchCounts>
        pathCounts_;
    ir::Addr prevPc_ = ir::kNoAddr;
    std::uint64_t runs_ = 0;
    BranchCounts zero_;
};

} // namespace branchlab::profile

#endif // BRANCHLAB_PROFILE_PROFILE_HH

/**
 * @file
 * The branch-predictor interface and the driver that scores a
 * predictor against a dynamic branch stream.
 *
 * Correctness follows the paper's model: a prediction is correct when
 * the fetch unit streamed the right instructions -- i.e. direction
 * matches, and for predicted-taken branches the fetched target equals
 * the executed target. Every incorrect prediction costs one pipeline
 * flush of k + l-bar + m-bar instructions (section 2.3).
 */

#ifndef BRANCHLAB_PREDICT_PREDICTOR_HH
#define BRANCHLAB_PREDICT_PREDICTOR_HH

#include <string>

#include "support/stats.hh"
#include "trace/event.hh"

namespace branchlab::predict
{

/**
 * The static facts about a branch that any implementable scheme may
 * consult at prediction time. Deliberately excludes the outcome.
 */
struct BranchQuery
{
    ir::Addr pc = ir::kNoAddr;
    ir::Opcode op = ir::Opcode::Jmp;
    bool conditional = false;
    /** True when the target is decodable (see Opcode docs). */
    bool targetKnown = true;
    /** Statically encoded target address, or kNoAddr for branches
     *  whose target is run-time data (JTab, CallInd) or register-
     *  resident (Ret). */
    ir::Addr staticTarget = ir::kNoAddr;
};

/** What a predictor tells the fetch unit. */
struct Prediction
{
    bool taken = false;
    /** Fetch address when taken; kNoAddr means the scheme cannot
     *  supply one (counts as a misfetch if the branch is taken). */
    ir::Addr target = ir::kNoAddr;
};

/** Derive the query (static view) from an executed-branch event. */
BranchQuery makeQuery(const trace::BranchEvent &event);

/**
 * Interface implemented by every scheme. Predict is called before
 * update for each dynamic branch, mirroring the fetch-then-resolve
 * pipeline order.
 */
class BranchPredictor
{
  public:
    virtual ~BranchPredictor() = default;

    /** Human-readable scheme name, e.g. "SBTB-256". */
    virtual std::string name() const = 0;

    /** Predict the branch at query.pc. Must not consult the outcome. */
    virtual Prediction predict(const BranchQuery &query) = 0;

    /** Learn from the resolved outcome. */
    virtual void update(const BranchQuery &query,
                        const trace::BranchEvent &outcome) = 0;

    /** Discard dynamic state (models a context switch). Schemes with
     *  no dynamic state (static, profile-based) ignore this -- the
     *  paper's point in section 3. */
    virtual void flush() {}

    /** True when the scheme tracks a buffer miss ratio (the paper's
     *  rho); lets replay() surface it without downcasting. */
    virtual bool hasMissRatio() const { return false; }

    /** The miss ratio so far; meaningful only when hasMissRatio(). */
    virtual double missRatio() const { return 0.0; }
};

/** Accuracy accounting for one predictor over one or many runs. */
struct PredictorStats
{
    /** Probability the prediction was correct (the paper's A). */
    Ratio accuracy;
    /** Accuracy over conditional branches only. */
    Ratio conditionalAccuracy;
    /** Accuracy over unconditional branches only. */
    Ratio unconditionalAccuracy;
    /** Fraction of branches predicted taken. */
    Ratio predictedTaken;

    void merge(const PredictorStats &other);
    void reset();
};

/**
 * Scores a predictor against a branch stream. Attach as the machine's
 * trace sink, or as a sink of the replay walk (predict::walkStream).
 * In replay this virtual path has one job: it is the reference the
 * replay kernels are tested against, and the route for what has no
 * kernel -- streams whose pcs exceed the kernels' flat tables, schemes
 * without a kernel, and predictors no spec describes (such as the
 * FlushingPredictor of `branchlab replay --flush-every`).
 */
class PredictionDriver : public trace::TraceSink
{
  public:
    explicit PredictionDriver(BranchPredictor &predictor)
        : predictor_(predictor)
    {}

    void onBranch(const trace::BranchEvent &event) override;

    const PredictorStats &stats() const { return stats_; }
    void resetStats() { stats_.reset(); }

    /** Decide correctness of one prediction against one outcome
     *  (exposed for tests and the cycle-level pipeline). */
    static bool isCorrect(const Prediction &prediction,
                          const trace::BranchEvent &outcome);

  private:
    BranchPredictor &predictor_;
    PredictorStats stats_;
};

} // namespace branchlab::predict

#endif // BRANCHLAB_PREDICT_PREDICTOR_HH

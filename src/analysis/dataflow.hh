/**
 * @file
 * Generic intraprocedural dataflow framework over analysis::Cfg.
 *
 * A worklist solver iterates a client-defined lattice to fixpoint over
 * the basic blocks of one method, in reverse post-order (forward
 * problems) or post-order (backward problems). Clients describe their
 * analysis as a *problem* object:
 *
 * @code
 *   struct MyProblem {
 *       using Domain = ...;                       // one lattice element
 *       static constexpr DataflowDirection kDirection =
 *           DataflowDirection::Forward;
 *       Domain boundary() const;   // state at the entry (fwd) / exit (bwd)
 *       // Merge `from` into `into` (meet/join); return true on change.
 *       bool merge(Domain &into, const Domain &from) const;
 *       // Apply one instruction's effect in program order (fwd) or
 *       // reverse program order (bwd).
 *       void transfer(int instr_idx, const air::Instruction &instr,
 *                     Domain &d) const;
 *   };
 * @endcode
 *
 * Two optional hooks extend the basic scheme:
 *  - `bool edgeTransfer(const Cfg &, int from_block, int to_block,
 *     Domain &d) const` refines (or kills, by returning false) the state
 *     flowing along one CFG edge -- this is how conditional constant
 *     propagation prunes branches that cannot be taken;
 *  - `void widen(Domain &d) const`, applied to a block's input after it
 *     has been re-entered more than kWidenAfter times, guarantees
 *     termination for lattices of unbounded height.
 *
 * The solver and every client below are pure functions of one
 * `const Cfg` (itself a pure function of a `const air::Method`), hold
 * no global state, and never mutate their inputs, so they are safe to
 * run concurrently from the per-plan parallel tasks of the detector:
 * each thread solves its own problem instances.
 *
 * Shipped clients: constant propagation with infeasible-edge detection
 * (MethodConstants), reaching definitions (ReachingDefs), and live
 * registers (Liveness). They power the constant-guided symbolic refuter
 * (symbolic/executor.cc) and the AIR lint driver (analysis/lint.cc).
 */

#ifndef SIERRA_ANALYSIS_DATAFLOW_HH
#define SIERRA_ANALYSIS_DATAFLOW_HH

#include <set>
#include <utility>
#include <vector>

#include "cfg.hh"
#include "points_to.hh" // ConstVal

namespace sierra::analysis {

/** Direction of a dataflow problem. */
enum class DataflowDirection { Forward, Backward };

namespace dataflow_detail {

template <typename P>
concept HasEdgeTransfer = requires(const P p, const Cfg &cfg,
                                   typename P::Domain d) {
    { p.edgeTransfer(cfg, 0, 0, d) } -> std::convertible_to<bool>;
};

template <typename P>
concept HasWiden = requires(const P p, typename P::Domain d) {
    p.widen(d);
};

/** Reverse post-order of blocks following `succs` (forward) or `preds`
 *  (backward) from the given root; unreachable blocks are appended in
 *  id order so every block gets a deterministic priority. */
std::vector<int> blockOrder(const Cfg &cfg, DataflowDirection dir);

} // namespace dataflow_detail

/** Per-block fixpoint states of one solved problem. */
template <typename Domain>
struct DataflowResult {
    /** State at the block's program-order start (forward: the solver
     *  input; backward: the solver output). */
    std::vector<Domain> atEntry;
    /** State at the block's program-order end. */
    std::vector<Domain> atExit;
    /** Whether the block was ever reached by the solver; states of
     *  unreached blocks are default-constructed and meaningless. */
    std::vector<char> reached;
};

/**
 * Solve one dataflow problem to fixpoint. Deterministic: iteration
 * order depends only on the CFG shape, never on timing or pointers.
 */
template <typename Problem>
DataflowResult<typename Problem::Domain>
solveDataflow(const Cfg &cfg, const Problem &problem)
{
    using Domain = typename Problem::Domain;
    constexpr bool forward =
        Problem::kDirection == DataflowDirection::Forward;
    /** Re-entries of one block before widening kicks in. */
    constexpr int kWidenAfter = 8;

    const int n = cfg.numBlocks();
    DataflowResult<Domain> r;
    r.atEntry.resize(n);
    r.atExit.resize(n);
    r.reached.assign(n, 0);

    // "in" = solver input side (program entry for forward problems,
    // program exit for backward ones); "out" = the other side.
    std::vector<Domain> &in = forward ? r.atEntry : r.atExit;
    std::vector<Domain> &out = forward ? r.atExit : r.atEntry;

    const std::vector<int> order = dataflow_detail::blockOrder(
        cfg, Problem::kDirection);
    std::vector<int> priority(n, 0);
    for (size_t i = 0; i < order.size(); ++i)
        priority[order[i]] = static_cast<int>(i);

    const int root = forward ? cfg.entryBlock() : cfg.exitBlock();
    in[root] = problem.boundary();
    r.reached[root] = 1;

    std::vector<int> visits(n, 0);
    // Worklist keyed by iteration-order priority: always process the
    // earliest pending block, which converges in near-minimal passes
    // for reducible CFGs.
    std::set<std::pair<int, int>> worklist; // (priority, block)
    worklist.insert({priority[root], root});

    auto instrRange = [&](int b) {
        return std::pair<int, int>(cfg.blocks()[b].first,
                                   cfg.blocks()[b].last);
    };

    while (!worklist.empty()) {
        const int b = worklist.begin()->second;
        worklist.erase(worklist.begin());

        if (++visits[b] > kWidenAfter) {
            if constexpr (dataflow_detail::HasWiden<Problem>)
                problem.widen(in[b]);
        }

        // Push the input through the block body.
        Domain d = in[b];
        auto [first, last] = instrRange(b);
        if (first <= last) { // the synthetic exit block is empty
            if constexpr (forward) {
                for (int i = first; i <= last; ++i)
                    problem.transfer(i, cfg.method().instr(i), d);
            } else {
                for (int i = last; i >= first; --i)
                    problem.transfer(i, cfg.method().instr(i), d);
            }
        }
        out[b] = std::move(d);

        const auto &targets = forward ? cfg.blocks()[b].succs
                                      : cfg.blocks()[b].preds;
        for (int t : targets) {
            Domain onto = out[b];
            if constexpr (dataflow_detail::HasEdgeTransfer<Problem>) {
                // Forward edge b->t; backward edge t->b.
                const int from = forward ? b : t;
                const int to = forward ? t : b;
                if (!problem.edgeTransfer(cfg, from, to, onto))
                    continue; // statically infeasible edge
            }
            bool changed;
            if (!r.reached[t]) {
                in[t] = std::move(onto);
                r.reached[t] = 1;
                changed = true;
            } else {
                changed = problem.merge(in[t], onto);
            }
            if (changed)
                worklist.insert({priority[t], t});
        }
    }
    return r;
}

// ---------------------------------------------------------------------
// Client 1: conditional constant propagation
// ---------------------------------------------------------------------

/**
 * Flow-sensitive constant facts for one method.
 *
 * Registers are propagated through const/move/arith instructions;
 * loads, calls and allocations produce Top, and method parameters start
 * at Top, so every fact holds for *all* invocations of the method.
 * Branches whose condition folds to a constant kill the untaken edge,
 * making the analysis conditional: code behind a constant guard is
 * recognized as unreachable and constants are only merged over
 * feasible paths.
 *
 * Facts are per instruction: `before(i, r)` is the value of register r
 * when instruction i starts executing. The symbolic refuter uses
 * `after()` to concretize otherwise-unknown register writes and
 * `edgeFeasible()` to avoid exploring branch edges that cannot execute
 * (see symbolic/executor.cc).
 */
class MethodConstants
{
  public:
    explicit MethodConstants(const Cfg &cfg);

    /** Value of `reg` just before instruction `instr` executes. */
    ConstVal before(int instr, int reg) const;
    /** Value of `reg` just after instruction `instr` executes. */
    ConstVal after(int instr, int reg) const;

    /** Can instruction `instr` execute at all? */
    bool reachable(int instr) const
    {
        return _reachable[instr] != 0;
    }

    /**
     * Is the CFG edge from the branch at `from_instr` to the block
     * starting at `to_instr` feasible? True for any pair that is not a
     * recorded infeasible branch edge.
     */
    bool edgeFeasible(int from_instr, int to_instr) const
    {
        return !_infeasible.count({from_instr, to_instr});
    }

    /** Number of branch edges statically killed. */
    int numInfeasibleEdges() const
    {
        return static_cast<int>(_infeasible.size());
    }

    /** Apply one instruction's effect on a register environment
     *  (exposed for the solver's problem object and for tests). */
    static void transferInstr(const air::Instruction &instr,
                              std::vector<ConstVal> &env);
    /** The value transferInstr writes to `instr.dst` (which must be a
     *  register), read without copying or changing `env`. */
    static ConstVal written(const air::Instruction &instr,
                            const std::vector<ConstVal> &env);

  private:
    const air::Method *_method;
    std::vector<std::vector<ConstVal>> _before; //!< per instr, per reg
    std::vector<char> _reachable;               //!< per instr
    std::set<std::pair<int, int>> _infeasible;  //!< (branch, succ) instrs
};

// ---------------------------------------------------------------------
// Client 2: reaching definitions
// ---------------------------------------------------------------------

/**
 * Which definition sites of each register may reach each instruction.
 * Definition sites are instruction indices; kEntryDef stands for the
 * implicit definition of `this` and the parameters at method entry.
 */
class ReachingDefs
{
  public:
    static constexpr int kEntryDef = -1;

    explicit ReachingDefs(const Cfg &cfg);

    /** Definition sites of `reg` that may reach `instr` (sorted). */
    std::vector<int> reaching(int instr, int reg) const;

    /** True if some definition of `reg` (incl. the entry definition of
     *  parameters) may reach `instr`. */
    bool anyDefReaches(int instr, int reg) const
    {
        return !reaching(instr, reg).empty();
    }

  private:
    const Cfg &_cfg;
    //! per block: per register, the def sites reaching block entry
    std::vector<std::vector<std::set<int>>> _atBlockEntry;
    std::vector<char> _reached;
};

// ---------------------------------------------------------------------
// Client 3: live registers
// ---------------------------------------------------------------------

/** Classic backward liveness of registers, per instruction. */
class Liveness
{
  public:
    explicit Liveness(const Cfg &cfg);

    /** Is `reg` read after instruction `instr` completes (before being
     *  redefined)? */
    bool liveAfter(int instr, int reg) const
    {
        return _liveAfter[instr][reg] != 0;
    }

  private:
    std::vector<std::vector<char>> _liveAfter; //!< per instr, per reg
};

} // namespace sierra::analysis

#endif // SIERRA_ANALYSIS_DATAFLOW_HH

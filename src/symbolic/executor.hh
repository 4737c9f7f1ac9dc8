/**
 * @file
 * Goal-directed backward symbolic execution (paper Section 5).
 *
 * A query asks: can action B run to completion and then action A run up
 * to the access alpha_A, along some feasible pair of paths? The executor
 * walks backward from alpha_A to A's entry -- descending into callees
 * (with frame-tagged registers and an explicit call stack) and crossing
 * from callee entries to callers within the action -- then backward
 * through B's body from its exits, applying weakest-precondition
 * substitutions. Strong updates to guard fields (e.g. "mIsRunning =
 * false") conflict with collected path constraints and prune paths; if
 * every path is pruned the ordering is infeasible.
 */

#ifndef SIERRA_SYMBOLIC_EXECUTOR_HH
#define SIERRA_SYMBOLIC_EXECUTOR_HH

#include <array>
#include <memory>
#include <mutex>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/cfg.hh"
#include "analysis/dataflow.hh"
#include "analysis/points_to.hh"
#include "constraint.hh"
#include "race/access.hh"

namespace sierra::analysis {
class InterConstants;
} // namespace sierra::analysis

namespace sierra::symbolic {

/** Result of one ordering query. */
enum class QueryVerdict {
    Feasible,   //!< a consistent path witnesses the ordering
    Infeasible, //!< all paths pruned: the ordering cannot happen
    Budget,     //!< path/step budget exhausted (treated as feasible)
};

const char *queryVerdictName(QueryVerdict v);

/** Executor tuning knobs. */
struct ExecutorOptions {
    int maxPaths{5000};   //!< terminated-path budget per query (paper's)
    int maxDepth{512};    //!< per-path backward step limit
    int maxSteps{200000}; //!< total state-expansion budget per query
    int maxCallDepth{8};  //!< descend limit; deeper calls are havocked
    /**
     * The paper's aggressive refuted-node cache (Section 5): nodes
     * visited by a refuted query prune later paths. It is unsound (it
     * ignores the constraint context), so it is off by default here and
     * measured by the cache ablation bench. A sound query-level memo is
     * always on.
     */
    bool useNodeCache{false};
    /**
     * Thread intraprocedural constant facts (analysis::MethodConstants)
     * into the walk: concretize otherwise-unknown register writes and
     * skip branch edges the constant fixpoint proved infeasible. Sound
     * -- facts hold for every invocation -- and deterministic, so it
     * only prunes work, never changes a Feasible verdict to Infeasible
     * incorrectly. Measured by bench_ablation_dataflow.
     */
    bool useConstFacts{true};
    /**
     * Interprocedural constant facts (analysis::InterConstants, the
     * IFDS stage). When set, the walk additionally concretizes values
     * the intraprocedural facts miss (setter parameters, callee
     * returns), prunes interprocedurally-infeasible pred edges, and --
     * the big lever -- replaces call-site havoc of must-write-constant
     * fields with strong constant updates, so guard clears hidden
     * behind deep setter chains still conflict with path constraints.
     * The object is read-only here and shared across refuter workers;
     * it must outlive the executor. Measured by bench_ablation_ifds.
     */
    const analysis::InterConstants *inter{nullptr};
};

/** Counters for the evaluation tables. */
struct ExecutorStats {
    int64_t queries{0};
    int64_t pathsExplored{0};
    int64_t statesExpanded{0};
    int64_t cacheHits{0};
    int64_t budgetExhausted{0};
    //! predecessor edges skipped via constant-infeasible branches
    int64_t constPruned{0};
    //! pred edges skipped only thanks to interprocedural facts
    int64_t interPruned{0};
    //! interprocedural concretizations (returns, must-write fields)
    int64_t interApplied{0};

    /**
     * Fold another executor's counters in. Plain component-wise sums,
     * so the merge is associative and commutative: sharded refutation
     * can combine per-worker stats in any grouping and get the same
     * totals. (cacheHits still depends on which queries shared an
     * executor's memo, so it may differ *across* jobs counts.)
     */
    void
    merge(const ExecutorStats &o)
    {
        queries += o.queries;
        pathsExplored += o.pathsExplored;
        statesExpanded += o.statesExpanded;
        cacheHits += o.cacheHits;
        budgetExhausted += o.budgetExhausted;
        constPruned += o.constPruned;
        interPruned += o.interPruned;
        interApplied += o.interApplied;
    }
};

/**
 * A refuted-node cache shareable between concurrently running
 * executors (paper Section 5 "Caching", here under sharded
 * refutation). Lock-striped: membership tests and bulk inserts lock
 * only the stripe a node hashes to, so parallel workers rarely
 * contend but still see each other's refutations promptly.
 */
class RefutedNodeCache
{
  public:
    bool
    contains(analysis::NodeId n) const
    {
        const Stripe &s = stripeFor(n);
        std::lock_guard<std::mutex> lock(s.mutex);
        return s.nodes.count(n) > 0;
    }

    template <typename Container>
    void
    insertAll(const Container &nodes)
    {
        for (analysis::NodeId n : nodes) {
            Stripe &s = stripeFor(n);
            std::lock_guard<std::mutex> lock(s.mutex);
            s.nodes.insert(n);
        }
    }

    size_t
    size() const
    {
        size_t total = 0;
        for (const Stripe &s : _stripes) {
            std::lock_guard<std::mutex> lock(s.mutex);
            total += s.nodes.size();
        }
        return total;
    }

  private:
    static constexpr size_t kStripes = 16;

    struct Stripe {
        mutable std::mutex mutex;
        std::unordered_set<analysis::NodeId> nodes;
    };

    const Stripe &
    stripeFor(analysis::NodeId n) const
    {
        return _stripes[static_cast<size_t>(n) % kStripes];
    }
    Stripe &
    stripeFor(analysis::NodeId n)
    {
        return _stripes[static_cast<size_t>(n) % kStripes];
    }

    std::array<Stripe, kStripes> _stripes;
};

/**
 * Backward symbolic executor over one pointer-analysis result. The
 * refuted-node cache persists across queries (by design, see paper).
 *
 * An executor is single-threaded; parallel refutation runs one
 * executor per worker. Passing a `shared_cache` lets those workers
 * pool their refuted nodes (only consulted when
 * `options.useNodeCache` is set); with no shared cache the executor
 * owns a private one.
 */
class BackwardExecutor
{
  public:
    BackwardExecutor(const analysis::PointsToResult &result,
                     ExecutorOptions options = {},
                     RefutedNodeCache *shared_cache = nullptr);

    /**
     * Is the ordering "B completes, then A runs and reaches `access`"
     * feasible? `access` must be executable under action_a.
     */
    QueryVerdict orderFeasible(const race::Access &access, int action_a,
                               int action_b);

    const ExecutorStats &stats() const { return _stats; }

  private:
    //! frame-tagged register keys: frame f, register r -> f*stride + r
    static constexpr int kFrameStride = 1 << 16;

    struct Frame {
        analysis::NodeId node{-1};
        int instr{0}; //!< caller position to resume at
        int frame{0}; //!< caller's register-frame id
    };

    struct PathState {
        int phase{0}; //!< 0 = inside A, 1 = inside B
        analysis::NodeId node{-1};
        int instr{0};
        bool skipEffect{false};
        int depth{0};
        int frame{0};
        int nextFrame{1};
        std::vector<Frame> callStack;
        ConstraintStore store;
    };

    static int
    regKey(int frame, int reg)
    {
        return frame * kFrameStride + reg;
    }

    /** What the walk needs about one method at every step, looked up
     *  once per expanded state rather than once per predecessor edge.
     *  Shared by every call-graph node of the method. */
    struct MethodSlot {
        std::unique_ptr<analysis::Cfg> cfg;
        //! constant facts, built on first use (useConstFacts)
        std::unique_ptr<analysis::MethodConstants> facts;
        int interIdx{-1}; //!< InterConstants handle of the method
    };

    MethodSlot &slotOf(analysis::NodeId n);

    /** Lazily computed per-method constant facts (useConstFacts). */
    const analysis::MethodConstants &factsOf(MethodSlot &slot);

    /** Which canonical key of a field reference a memo entry holds. */
    enum class KeyKind : uint8_t {
        Instance, //!< PointsToResult::fieldKey(obj, field)
        Static,   //!< PointsToResult::staticKey(field)
        Declared, //!< "Class.field" as written at the access
        Elems,    //!< the wildcard element key of array object `obj`
    };

    /** Memoized canonical keys. `field` is keyed by address: the
     *  FieldRefs passed in (instruction operands, must-write facts)
     *  outlive the executor. */
    analysis::FieldKey keyOf(KeyKind kind, analysis::ObjId obj,
                             const air::FieldRef *field);

    /** Keys of fields possibly written by a node (transitively); used
     *  to havoc calls beyond the descend limit. */
    const std::vector<analysis::FieldKey> &
    mayWriteKeys(analysis::NodeId n);

    /** Apply instruction backward transfer (non-invoke); false=prune. */
    bool transfer(PathState &st, MethodSlot &slot,
                  const air::Instruction &instr);

    /** Handle an invoke backward: descend into callees or havoc. Pushes
     *  successor states; returns false when the state was fully handled
     *  by descent (so the caller must not continue this state). */
    bool handleInvoke(PathState &st, const air::Instruction &instr,
                      std::vector<PathState> &stack);

    /** Handle reaching instruction 0 of a method. Returns true when the
     *  whole query is feasible. Leaves `st` as it was: the caller
     *  still explores its predecessors. */
    bool atEntry(const PathState &st, int action_a, int action_b,
                 std::vector<PathState> &stack);

    /** Rename callee frame registers to the caller's argument registers
     *  at a frame boundary. */
    bool bindFrame(ConstraintStore &store, const air::Method *callee,
                   int callee_frame, const air::Instruction &call,
                   int caller_frame);

    bool startPhaseB(const ConstraintStore &store, int depth,
                     int action_b, std::vector<PathState> &stack);

    bool resolveLoc(analysis::NodeId n, int reg,
                    const air::FieldRef &field, race::MemLoc &out);

    const analysis::PointsToResult &_r;
    ExecutorOptions _opts;
    ExecutorStats _stats;

    std::unordered_map<const air::Method *, MethodSlot> _slots;
    //! NodeId -> its method's slot (null until first visit)
    std::vector<MethodSlot *> _slotOfNode;

    struct KeyMemoKey {
        const air::FieldRef *field;
        analysis::ObjId obj;
        KeyKind kind;
        bool operator==(const KeyMemoKey &) const = default;
    };
    struct KeyMemoHash {
        size_t
        operator()(const KeyMemoKey &k) const
        {
            size_t h = std::hash<const void *>()(k.field);
            h ^= (static_cast<size_t>(k.obj) << 2 |
                  static_cast<size_t>(k.kind)) *
                 0x9e3779b97f4a7c15ull;
            return h;
        }
    };
    std::unordered_map<KeyMemoKey, analysis::FieldKey, KeyMemoHash>
        _keyMemo;
    //! "android.os.Message.what", interned on first use
    analysis::FieldKey _messageWhat;
    //! scratch: the handled message's objects at an action entry
    std::vector<int> _msgObjs;
    //! scratch: the callees of the invoke being handled
    std::vector<analysis::NodeId> _callees;
    //! the query's state stack, kept to reuse its capacity
    std::vector<PathState> _stack;

    std::unordered_map<analysis::NodeId,
                       std::vector<analysis::FieldKey>>
        _mayWrite;
    std::set<analysis::NodeId> _mayWriteInProgress;
    //! refuted-query node cache (paper Section 5 "Caching"); points at
    //! _ownedCache unless a shared cache was injected
    RefutedNodeCache *_nodeCache;
    std::unique_ptr<RefutedNodeCache> _ownedCache;
    //! nodes visited by the current query's phase-A walk (filled only
    //! when options.useNodeCache is set: nothing else reads it)
    std::set<analysis::NodeId> _queryVisited;
    //! sound memoization of whole queries
    std::map<std::tuple<analysis::SiteId, int, int>, QueryVerdict>
        _queryMemo;
};

} // namespace sierra::symbolic

#endif // SIERRA_SYMBOLIC_EXECUTOR_HH

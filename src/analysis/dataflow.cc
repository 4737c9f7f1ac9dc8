#include "dataflow.hh"

#include <algorithm>

#include "air/logging.hh"

namespace sierra::analysis {

using air::Instruction;
using air::Opcode;

namespace dataflow_detail {

std::vector<int>
blockOrder(const Cfg &cfg, DataflowDirection dir)
{
    const int n = cfg.numBlocks();
    const bool forward = dir == DataflowDirection::Forward;
    const int root = forward ? cfg.entryBlock() : cfg.exitBlock();

    std::vector<int> postorder;
    std::vector<char> seen(n, 0);
    // Iterative DFS with an explicit edge cursor per frame.
    std::vector<std::pair<int, size_t>> stack{{root, 0}};
    seen[root] = 1;
    while (!stack.empty()) {
        auto &[b, cursor] = stack.back();
        const auto &next = forward ? cfg.blocks()[b].succs
                                   : cfg.blocks()[b].preds;
        if (cursor < next.size()) {
            int t = next[cursor++];
            if (!seen[t]) {
                seen[t] = 1;
                stack.push_back({t, 0});
            }
        } else {
            postorder.push_back(b);
            stack.pop_back();
        }
    }
    std::vector<int> order(postorder.rbegin(), postorder.rend());
    for (int b = 0; b < n; ++b) {
        if (!seen[b])
            order.push_back(b);
    }
    return order;
}

} // namespace dataflow_detail

// ---------------------------------------------------------------------
// Constant propagation
// ---------------------------------------------------------------------

namespace {

ConstVal
constTop()
{
    ConstVal v;
    v.state = ConstVal::State::Top;
    return v;
}

ConstVal
constOf(int64_t value)
{
    ConstVal v;
    v.state = ConstVal::State::Const;
    v.value = value;
    return v;
}

/** Meet of two (Const | Top) values. */
ConstVal
constMeet(const ConstVal &a, const ConstVal &b)
{
    if (a.isConst() && b.isConst() && a.value == b.value)
        return a;
    return constTop();
}

/**
 * Decide a conditional branch under a register environment.
 * @return 1 = always taken, 0 = never taken, -1 = unknown.
 */
int
evalBranch(const Instruction &instr, const std::vector<ConstVal> &env)
{
    const ConstVal &lhs = env[instr.srcs[0]];
    if (!lhs.isConst())
        return -1;
    int64_t rhs = 0;
    if (instr.op == Opcode::If) {
        const ConstVal &r = env[instr.srcs[1]];
        if (!r.isConst())
            return -1;
        rhs = r.value;
    }
    return air::evalCond(instr.cond, lhs.value, rhs) ? 1 : 0;
}

/**
 * The value instruction `idx` writes to its destination register under
 * `env`: folded constants and arithmetic, the seeded return of an
 * invoke, Top for everything else.
 */
ConstVal
written(const ConstSeed &seed, int idx, const Instruction &instr,
        const std::vector<ConstVal> &env)
{
    switch (instr.op) {
      case Opcode::ConstInt: return constOf(instr.intValue);
      case Opcode::ConstNull: return constOf(0);
      case Opcode::Move: return env[instr.srcs[0]];
      case Opcode::BinOp: {
        const ConstVal &l = env[instr.srcs[0]];
        const ConstVal &r = env[instr.srcs[1]];
        return l.isConst() && r.isConst()
                   ? constOf(air::evalBinOp(instr.binop, l.value, r.value))
                   : constTop();
      }
      case Opcode::UnOp: {
        const ConstVal &s = env[instr.srcs[0]];
        if (!s.isConst())
            return constTop();
        // Matches the dynamic interpreter: Not is logical.
        return constOf(instr.unop == air::UnOpKind::Not
                           ? (s.value == 0 ? 1 : 0)
                           : -s.value);
      }
      case Opcode::Invoke: {
        auto it = seed.invokeReturns.find(idx);
        return it == seed.invokeReturns.end() ? constTop() : it->second;
      }
      default:
        // Loads, allocations, ConstStr: unknown value. (New is non-null
        // but not a *known* integer; modeling it as a constant would
        // fold comparisons between two distinct allocations.)
        return constTop();
    }
}

/** The blocks a conditional branch ending `block` leads to: its
 *  target's (-1 for a target outside the body) and its fallthrough's
 *  (-1 at the end of the body). */
std::pair<int, int>
branchBlocks(const Cfg &cfg, const BasicBlock &block)
{
    const air::Method &m = cfg.method();
    const int target = m.instr(block.last).target;
    return {target >= 0 && target < m.numInstrs() ? cfg.blockOf(target)
                                                  : -1,
            block.last + 1 < m.numInstrs() ? cfg.blockOf(block.last + 1)
                                           : -1};
}

/** The conditional-constant-propagation problem for the solver. */
struct ConstProblem {
    using Domain = std::vector<ConstVal>;
    static constexpr DataflowDirection kDirection =
        DataflowDirection::Forward;

    int numRegisters;
    const ConstSeed &seed;

    Domain
    boundary() const
    {
        // Registers the seed does not pin (all of them when unseeded,
        // and conservatively uninitialized temporaries) hold arbitrary
        // values.
        Domain d(static_cast<size_t>(numRegisters), constTop());
        for (size_t r = 0; r < seed.params.size() && r < d.size(); ++r)
            d[r] = seed.params[r];
        return d;
    }

    bool
    merge(Domain &into, const Domain &from) const
    {
        bool changed = false;
        for (size_t r = 0; r < into.size(); ++r) {
            ConstVal met = constMeet(into[r], from[r]);
            if (met.state != into[r].state ||
                (met.isConst() && met.value != into[r].value)) {
                into[r] = met;
                changed = true;
            }
        }
        return changed;
    }

    void
    transfer(int idx, const Instruction &instr, Domain &d) const
    {
        // An instruction writes its destination register and nothing
        // else.
        if (instr.dst >= 0)
            d[instr.dst] = written(seed, idx, instr, d);
    }

    bool
    edgeTransfer(const Cfg &cfg, int from, int to, Domain &d) const
    {
        const auto &fb = cfg.blocks()[from];
        if (fb.first > fb.last)
            return true; // synthetic exit block
        const Instruction &last = cfg.method().instr(fb.last);
        if (!last.isConditionalBranch())
            return true;
        const auto [target_block, fall_block] = branchBlocks(cfg, fb);
        if (target_block == fall_block)
            return true; // one edge either way: no information

        // `d` is the post-block state, i.e. the environment at the
        // branch; branches write no register.
        const bool is_target_edge = to == target_block;
        const int verdict = evalBranch(last, d);
        if (verdict == 1 && !is_target_edge)
            return false;
        if (verdict == 0 && is_target_edge)
            return false;

        // Refine an equality edge: after "if (r == c)" is taken (or
        // "if (r != c)" falls through), r is known to be c.
        air::CondKind effective =
            is_target_edge ? last.cond : air::negateCond(last.cond);
        if (effective == air::CondKind::Eq) {
            int reg = -1;
            int64_t value = 0;
            if (last.op == Opcode::IfZ) {
                reg = last.srcs[0];
                value = 0;
            } else if (d[last.srcs[1]].isConst()) {
                reg = last.srcs[0];
                value = d[last.srcs[1]].value;
            } else if (d[last.srcs[0]].isConst()) {
                reg = last.srcs[1];
                value = d[last.srcs[0]].value;
            }
            if (reg >= 0 && !d[reg].isConst())
                d[reg] = constOf(value);
        }
        return true;
    }
};

} // namespace

MethodConstants::MethodConstants(const Cfg &cfg, const ConstSeed &seed)
    : _method(&cfg.method()), _seed(seed)
{
    const air::Method &m = cfg.method();
    const int n = m.numInstrs();
    _reachable.assign(n, 0);
    _before.assign(
        n, std::vector<ConstVal>(static_cast<size_t>(m.numRegisters())));

    ConstProblem problem{m.numRegisters(), _seed};
    DataflowResult<ConstProblem::Domain> r =
        solveDataflow(cfg, problem);

    for (const BasicBlock &block : cfg.blocks()) {
        if (block.first > block.last)
            continue; // synthetic exit
        if (!r.reached[block.id])
            continue; // whole block statically unreachable
        std::vector<ConstVal> env = r.atEntry[block.id];
        for (int i = block.first; i <= block.last; ++i) {
            _reachable[i] = 1;
            _before[i] = env;
            problem.transfer(i, m.instr(i), env);
        }

        // Record branch edges the fixpoint proved infeasible, keyed by
        // instruction indices for the backward executor.
        const Instruction &last = m.instr(block.last);
        if (!last.isConditionalBranch())
            continue;
        const auto [target_block, fall_block] = branchBlocks(cfg, block);
        if (target_block == fall_block)
            continue;
        const int verdict = evalBranch(last, _before[block.last]);
        if (verdict == 1 && fall_block >= 0)
            _infeasible.insert({block.last, block.last + 1});
        else if (verdict == 0 && target_block >= 0)
            _infeasible.insert({block.last, last.target});
    }
}

ConstVal
MethodConstants::before(int instr, int reg) const
{
    if (!_reachable[instr])
        return {}; // Bottom: the instruction cannot execute
    return _before[instr][reg];
}

ConstVal
MethodConstants::after(int instr, int reg) const
{
    if (!_reachable[instr])
        return {};
    const Instruction &in = _method->instr(instr);
    if (in.dst >= 0 && in.dst == reg)
        return written(_seed, instr, in, _before[instr]);
    return _before[instr][reg];
}

// ---------------------------------------------------------------------
// Reaching definitions
// ---------------------------------------------------------------------

namespace {

struct ReachingProblem {
    using Domain = std::vector<std::set<int>>;
    static constexpr DataflowDirection kDirection =
        DataflowDirection::Forward;

    int numRegisters;
    int firstTempReg;

    Domain
    boundary() const
    {
        Domain d(static_cast<size_t>(numRegisters));
        for (int r = 0; r < firstTempReg; ++r)
            d[r].insert(ReachingDefs::kEntryDef);
        return d;
    }

    bool
    merge(Domain &into, const Domain &from) const
    {
        bool changed = false;
        for (size_t r = 0; r < into.size(); ++r) {
            for (int def : from[r])
                changed |= into[r].insert(def).second;
        }
        return changed;
    }

    void
    transfer(int idx, const Instruction &instr, Domain &d) const
    {
        if (instr.writesRegister())
            d[instr.dst] = {idx};
    }
};

} // namespace

ReachingDefs::ReachingDefs(const Cfg &cfg) : _cfg(cfg)
{
    ReachingProblem problem{cfg.method().numRegisters(),
                            cfg.method().firstTempReg()};
    DataflowResult<ReachingProblem::Domain> r =
        solveDataflow(cfg, problem);
    _atBlockEntry = std::move(r.atEntry);
    _reached = std::move(r.reached);
}

std::vector<int>
ReachingDefs::reaching(int instr, int reg) const
{
    const int b = _cfg.blockOf(instr);
    if (!_reached[b])
        return {};
    ReachingProblem::Domain env = _atBlockEntry[b];
    ReachingProblem problem{_cfg.method().numRegisters(),
                            _cfg.method().firstTempReg()};
    for (int i = _cfg.blocks()[b].first; i < instr; ++i)
        problem.transfer(i, _cfg.method().instr(i), env);
    return {env[reg].begin(), env[reg].end()};
}

// ---------------------------------------------------------------------
// Liveness
// ---------------------------------------------------------------------

namespace {

struct LivenessProblem {
    using Domain = std::vector<char>;
    static constexpr DataflowDirection kDirection =
        DataflowDirection::Backward;

    int numRegisters;

    Domain
    boundary() const
    {
        return Domain(static_cast<size_t>(numRegisters), 0);
    }

    bool
    merge(Domain &into, const Domain &from) const
    {
        bool changed = false;
        for (size_t r = 0; r < into.size(); ++r) {
            if (from[r] && !into[r]) {
                into[r] = 1;
                changed = true;
            }
        }
        return changed;
    }

    void
    transfer(int, const Instruction &instr, Domain &d) const
    {
        if (instr.dst >= 0)
            d[instr.dst] = 0;
        for (int src : instr.srcs)
            d[src] = 1;
    }
};

} // namespace

Liveness::Liveness(const Cfg &cfg)
{
    const air::Method &m = cfg.method();
    LivenessProblem problem{m.numRegisters()};
    DataflowResult<LivenessProblem::Domain> r =
        solveDataflow(cfg, problem);

    // Conservative default for blocks the backward solve never reached
    // (code that cannot fall through to an exit): everything live.
    _liveAfter.assign(
        m.numInstrs(),
        std::vector<char>(static_cast<size_t>(m.numRegisters()), 1));
    for (const BasicBlock &block : cfg.blocks()) {
        if (block.first > block.last || !r.reached[block.id])
            continue;
        LivenessProblem::Domain live = r.atExit[block.id];
        for (int i = block.last; i >= block.first; --i) {
            _liveAfter[i] = live;
            problem.transfer(i, m.instr(i), live);
        }
    }
}

} // namespace sierra::analysis

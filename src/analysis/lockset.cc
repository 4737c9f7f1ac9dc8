#include "lockset.hh"

#include <algorithm>
#include <utility>

#include "method_facts.hh"

namespace sierra::analysis {

const LockState LockSetAnalysis::_emptyState;

namespace {

/** Intersect `from` into `into` (min depths); true on change. */
bool
meetInto(LockState &into, const LockState &from)
{
    bool changed = false;
    for (auto it = into.begin(); it != into.end();) {
        auto fit = from.find(it->first);
        if (fit == from.end()) {
            it = into.erase(it);
            changed = true;
            continue;
        }
        if (fit->second < it->second) {
            it->second = fit->second;
            changed = true;
        }
        ++it;
    }
    return changed;
}

/** Does the method body contain any monitor instruction? */
bool
hasMonitors(const air::Method *method)
{
    if (!method || !method->hasBody())
        return false;
    for (const air::Instruction &instr : method->instrs()) {
        if (instr.op == air::Opcode::MonitorEnter ||
            instr.op == air::Opcode::MonitorExit) {
            return true;
        }
    }
    return false;
}

/** The forward must-lock dataflow problem for one call-graph node. */
struct LockProblem {
    using Domain = LockState;
    static constexpr DataflowDirection kDirection =
        DataflowDirection::Forward;

    const PointsToResult &pts;
    NodeId node;
    const LockState &entry;

    Domain boundary() const { return entry; }

    bool merge(Domain &into, const Domain &from) const
    {
        return meetInto(into, from);
    }

    void
    transfer(int, const air::Instruction &instr, Domain &d) const
    {
        if (instr.op == air::Opcode::MonitorEnter) {
            if (instr.srcs.empty())
                return;
            const ObjSet &objs = pts.pointsTo(node, instr.srcs[0]);
            // Must-alias approximation: only a singleton points-to set
            // names the held lock. Ambiguous enters acquire nothing
            // (under-approximation; sound for refutation).
            if (objs.size() == 1) {
                int &depth = d[*objs.begin()];
                depth = std::min(depth + 1,
                                 LockSetAnalysis::kDepthCap);
            }
        } else if (instr.op == air::Opcode::MonitorExit) {
            if (instr.srcs.empty())
                return;
            // An exit may release any lock its register may alias, so
            // drop one level from every may-aliased lock.
            for (ObjId obj : pts.pointsTo(node, instr.srcs[0])) {
                auto it = d.find(obj);
                if (it == d.end())
                    continue;
                if (--it->second <= 0)
                    d.erase(it);
            }
        }
    }

    void
    widen(Domain &d) const
    {
        for (auto &[obj, depth] : d)
            depth = std::min(depth, LockSetAnalysis::kDepthCap);
    }
};

} // namespace

LockSetAnalysis::LockSetAnalysis(const PointsToResult &pts)
{
    const CallGraph &cg = pts.cg;
    const int n = cg.numNodes();
    _atInstr.resize(n);
    _entry.resize(n);

    std::vector<char> monitored(n, 0);
    for (NodeId id = 0; id < n; ++id) {
        if (hasMonitors(cg.node(id).method)) {
            monitored[id] = 1;
            ++_monitoredNodes;
        }
    }

    // Framework-invoked entries run with no app locks held.
    std::vector<char> framework_entry(n, 0);
    auto mark_entry = [&](NodeId id) {
        if (id >= 0 && id < n)
            framework_entry[id] = 1;
    };
    mark_entry(pts.rootNode);
    for (const Action &action : pts.actions.all())
        mark_entry(action.entryNode);
    for (NodeId id = 0; id < n; ++id) {
        if (cg.callersOf(id).empty())
            mark_entry(id);
    }

    // Fast exit: without monitor instructions every state is empty.
    if (_monitoredNodes == 0)
        return;

    // Per-node intraprocedural solve under the current entry state.
    auto solveNode = [&](NodeId id) {
        const air::Method *method = cg.node(id).method;
        std::vector<LockState> &states = _atInstr[id];
        states.assign(static_cast<size_t>(method->numInstrs()),
                      LockState{});
        if (!monitored[id]) {
            // No monitor instruction: the entry state holds everywhere.
            for (LockState &s : states)
                s = _entry[id];
            return;
        }
        const Cfg &cfg = pts.facts.cfg(*method);
        LockProblem problem{pts, id, _entry[id]};
        DataflowResult<LockState> r = solveDataflow(cfg, problem);
        for (const BasicBlock &block : cfg.blocks()) {
            if (block.id >= 0 &&
                !r.reached[static_cast<size_t>(block.id)]) {
                continue;
            }
            LockState d = r.atEntry[static_cast<size_t>(block.id)];
            for (int i = block.first; i <= block.last; ++i) {
                states[static_cast<size_t>(i)] = d;
                problem.transfer(i, method->instr(i), d);
            }
        }
    };

    // Interprocedural entry locks: the entry state of a callee is the
    // intersection of the locks held at every call site reaching it.
    // Optimistic fixpoint: entries start at (implicit) Top, designated
    // framework entries at empty; contributions only shrink, so the
    // meet over the recorded ones converges from above.
    std::vector<char> known(n, 0);
    // Per callee: (caller, site) -> locks held at that call site.
    std::vector<std::map<std::pair<NodeId, SiteId>, LockState>>
        contributions(static_cast<size_t>(n));

    std::vector<NodeId> work;
    for (NodeId id = 0; id < n; ++id) {
        if (framework_entry[id]) {
            known[id] = 1;
            work.push_back(id);
        }
    }

    while (!work.empty()) {
        NodeId id = work.back();
        work.pop_back();
        const air::Method *method = cg.node(id).method;
        if (!method || !method->hasBody())
            continue;
        solveNode(id);
        for (const CGEdge &edge : cg.edgesOf(id)) {
            int call_instr = pts.sites.instrOf(edge.site);
            LockState held;
            if (call_instr >= 0 &&
                call_instr <
                    static_cast<int>(_atInstr[id].size())) {
                held = _atInstr[id][static_cast<size_t>(call_instr)];
            }
            auto &contrib =
                contributions[static_cast<size_t>(edge.callee)];
            auto key = std::make_pair(id, edge.site);
            auto it = contrib.find(key);
            if (it != contrib.end() && it->second == held)
                continue;
            contrib[std::move(key)] = std::move(held);

            if (framework_entry[edge.callee])
                continue; // pinned to empty
            LockState merged;
            bool first = true;
            for (const auto &[k, state] : contrib) {
                if (first) {
                    merged = state;
                    first = false;
                } else {
                    meetInto(merged, state);
                }
            }
            if (!known[edge.callee] ||
                merged != _entry[edge.callee]) {
                known[edge.callee] = 1;
                _entry[edge.callee] = std::move(merged);
                work.push_back(edge.callee);
            }
        }
    }
}

std::set<ObjId>
LockSetAnalysis::locksHeldAt(NodeId node, int instr_idx) const
{
    std::set<ObjId> out;
    for (const auto &[obj, depth] : stateAt(node, instr_idx))
        out.insert(obj);
    return out;
}

LockState
LockSetAnalysis::stateAt(NodeId node, int instr_idx) const
{
    if (node < 0 || node >= static_cast<NodeId>(_atInstr.size()))
        return {};
    const auto &states = _atInstr[static_cast<size_t>(node)];
    if (states.empty()) {
        // Node never solved (no monitors anywhere, or unreached by the
        // interprocedural fixpoint): its state is its entry state.
        return _entry[static_cast<size_t>(node)];
    }
    if (instr_idx < 0 || instr_idx >= static_cast<int>(states.size()))
        return {};
    return states[static_cast<size_t>(instr_idx)];
}

const LockState &
LockSetAnalysis::entryLocks(NodeId node) const
{
    if (node < 0 || node >= static_cast<NodeId>(_entry.size()))
        return _emptyState;
    return _entry[static_cast<size_t>(node)];
}

} // namespace sierra::analysis

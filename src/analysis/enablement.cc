/**
 * @file
 * Registration typestate + enablement reachability (see enablement.hh).
 */

#include "enablement.hh"

#include "method_facts.hh"
#include "framework/known_api.hh"

namespace sierra::analysis {

namespace {

/** Key families a callee may enable (kills in the typestate). */
enum EnableBit : uint8_t {
    kEnReceiver = 1,
    kEnRunnable = 2,
    kEnMessage = 4,
    kEnListener = 8,
};

bool
singleton(const ObjSet &s)
{
    return s.size() == 1;
}

ObjId
only(const ObjSet &s)
{
    return *s.begin();
}

/** Which families one classified call site may enable; 0 if none. */
uint8_t
enableBitOf(framework::ApiKind kind)
{
    using framework::ApiKind;
    switch (kind) {
    case ApiKind::RegisterReceiver:
        return kEnReceiver;
    case ApiKind::HandlerPost:
        return kEnRunnable;
    case ApiKind::HandlerSendMessage:
        return kEnMessage;
    case ApiKind::SetListener:
        return kEnListener;
    default:
        return 0;
    }
}

} // namespace

/**
 * The forward must-typestate over one disabler callback's body.
 * Facts: key -> MustOff | MustBound(listener). Merge is intersection
 * of identical entries; enabling calls kill, disabling calls with
 * must-alias operands generate.
 */
struct EnablementAnalysis::TypestateProblem {
    using Domain = EnablementAnalysis::TsDomain;
    static constexpr DataflowDirection kDirection =
        DataflowDirection::Forward;

    const PointsToResult &result;
    const framework::KnownApis &apis;
    NodeId node;
    const air::Method &method;
    const std::map<std::string, int> &slots;
    /** Invoke instr idx -> transitive may-enable mask of its callees. */
    const std::unordered_map<int, uint8_t> &calleeMask;

    Domain boundary() const { return {}; }

    bool
    merge(Domain &into, const Domain &from) const
    {
        bool changed = false;
        for (auto it = into.begin(); it != into.end();) {
            auto f = from.find(it->first);
            if (f == from.end() || !(f->second == it->second)) {
                it = into.erase(it);
                changed = true;
            } else {
                ++it;
            }
        }
        return changed;
    }

    void
    eraseFamily(Domain &d, uint8_t mask) const
    {
        if (mask == 0)
            return;
        for (auto it = d.begin(); it != d.end();) {
            uint8_t bit = 0;
            switch (it->first.kind) {
            case EnablementKind::Receiver:
                bit = kEnReceiver;
                break;
            case EnablementKind::Runnable:
                bit = kEnRunnable;
                break;
            case EnablementKind::Message:
                bit = kEnMessage;
                break;
            case EnablementKind::Listener:
                bit = kEnListener;
                break;
            }
            it = (mask & bit) ? d.erase(it) : std::next(it);
        }
    }

    void
    eraseMessagesOf(Domain &d, ObjId handler) const
    {
        for (auto it = d.begin(); it != d.end();) {
            if (it->first.kind == EnablementKind::Message &&
                it->first.obj == handler) {
                it = d.erase(it);
            } else {
                ++it;
            }
        }
    }

    void
    transfer(int instr_idx, const air::Instruction &in, Domain &d) const
    {
        if (!in.isInvoke())
            return;
        using framework::ApiKind;
        const ApiKind kind = apis.classify(in.method);
        switch (kind) {
        case ApiKind::RegisterReceiver: {
            if (in.srcs.size() < 2)
                break;
            for (int o : result.pointsTo(node, in.srcs[1]))
                d.erase({EnablementKind::Receiver, o, 0});
            break;
        }
        case ApiKind::UnregisterReceiver: {
            if (in.srcs.size() < 2)
                break;
            const ObjSet &recv = result.pointsTo(node, in.srcs[1]);
            if (singleton(recv))
                d[{EnablementKind::Receiver, only(recv), 0}] = {true, -1};
            break;
        }
        case ApiKind::HandlerPost: {
            if (in.srcs.size() < 2)
                break;
            for (int h : result.pointsTo(node, in.srcs[0]))
                for (int r : result.pointsTo(node, in.srcs[1]))
                    d.erase({EnablementKind::Runnable, h, r});
            break;
        }
        case ApiKind::HandlerSendMessage: {
            if (in.srcs.empty())
                break;
            for (int h : result.pointsTo(node, in.srcs[0]))
                eraseMessagesOf(d, h);
            break;
        }
        case ApiKind::HandlerRemove: {
            if (in.srcs.size() < 2)
                break;
            const ObjSet &handler = result.pointsTo(node, in.srcs[0]);
            if (!singleton(handler))
                break;
            if (in.method.methodName == "removeCallbacks") {
                const ObjSet &run = result.pointsTo(node, in.srcs[1]);
                if (singleton(run)) {
                    d[{EnablementKind::Runnable, only(handler),
                       only(run)}] = {true, -1};
                }
            } else { // removeMessages(what)
                ConstVal what = result.constOf(node, in.srcs[1]);
                if (what.isConst()) {
                    d[{EnablementKind::Message, only(handler),
                       static_cast<int>(what.value)}] = {true, -1};
                }
            }
            break;
        }
        case ApiKind::SetListener: {
            if (in.srcs.size() < 2)
                break;
            auto slot_it = slots.find(
                framework::KnownApis::listenerCallback(
                    in.method.methodName));
            if (slot_it == slots.end())
                break;
            const int slot = slot_it->second;
            const ObjSet &view = result.pointsTo(node, in.srcs[0]);
            if (framework::KnownApis::isListenerClear(method,
                                                      instr_idx)) {
                // Clearing never enables: a must-alias view gains the
                // off fact, an ambiguous one changes nothing.
                if (singleton(view)) {
                    d[{EnablementKind::Listener, only(view), slot}] = {
                        true, -1};
                }
                break;
            }
            const ObjSet &listener = result.pointsTo(node, in.srcs[1]);
            if (singleton(view) && singleton(listener)) {
                d[{EnablementKind::Listener, only(view), slot}] = {
                    false, only(listener)};
            } else {
                for (int v : result.pointsTo(node, in.srcs[0]))
                    d.erase({EnablementKind::Listener, v, slot});
            }
            break;
        }
        default: {
            // A call into app code may transitively enable: kill the
            // families its callees can touch.
            auto it = calleeMask.find(instr_idx);
            if (it != calleeMask.end())
                eraseFamily(d, it->second);
            break;
        }
        }
    }
};

EnablementAnalysis::EnablementAnalysis(const PointsToResult &result,
                                       const framework::KnownApis &apis)
    : _result(result), _apis(apis)
{
    computeCalleeEnableMasks();
    scanSites();
    buildRecords();
    buildDisablers();
}

int
EnablementAnalysis::slotOf(const std::string &callback)
{
    auto it = _slots.find(callback);
    if (it != _slots.end())
        return it->second;
    const int id = static_cast<int>(_slots.size());
    _slots.emplace(callback, id);
    return id;
}

void
EnablementAnalysis::computeCalleeEnableMasks()
{
    const CallGraph &cg = _result.cg;
    const int n = cg.numNodes();
    _mayEnable.assign(static_cast<size_t>(n), 0);

    // Direct bits: each node's own classified enable sites.
    for (NodeId node = 0; node < n; ++node) {
        const air::Method *m = cg.node(node).method;
        if (m == nullptr)
            continue;
        for (const air::Instruction &in : m->instrs()) {
            if (in.isInvoke())
                _mayEnable[node] |= enableBitOf(_apis.classify(in.method));
        }
    }
    // Caller absorbs callee, to fixpoint (masks only grow; the loop
    // runs at most 4 extra rounds over the deepest chain).
    bool changed = true;
    while (changed) {
        changed = false;
        for (NodeId node = 0; node < n; ++node) {
            for (const CGEdge &e : cg.edgesOf(node)) {
                const uint8_t merged = static_cast<uint8_t>(
                    _mayEnable[node] | _mayEnable[e.callee]);
                if (merged != _mayEnable[node]) {
                    _mayEnable[node] = merged;
                    changed = true;
                }
            }
        }
    }
}

void
EnablementAnalysis::scanSites()
{
    const CallGraph &cg = _result.cg;
    const int n = cg.numNodes();
    _hasDisableSite.assign(static_cast<size_t>(n), 0);

    for (NodeId node = 0; node < n; ++node) {
        const air::Method *m = cg.node(node).method;
        if (m == nullptr || m->instrs().empty())
            continue;
        const int count = static_cast<int>(m->instrs().size());
        for (int idx = 0; idx < count; ++idx) {
            const air::Instruction &in = m->instr(idx);
            if (!in.isInvoke())
                continue;
            using framework::ApiKind;
            switch (_apis.classify(in.method)) {
            case ApiKind::RegisterReceiver: {
                if (in.srcs.size() < 2)
                    break;
                for (int o : _result.pointsTo(node, in.srcs[1])) {
                    _enableSites[{EnablementKind::Receiver, o, 0}]
                        .push_back({node, {}});
                }
                ++_stats.enableSites;
                break;
            }
            case ApiKind::HandlerPost: {
                if (in.srcs.size() < 2)
                    break;
                for (int h : _result.pointsTo(node, in.srcs[0])) {
                    for (int r : _result.pointsTo(node, in.srcs[1])) {
                        _enableSites[{EnablementKind::Runnable, h, r}]
                            .push_back({node, {}});
                    }
                }
                ++_stats.enableSites;
                break;
            }
            case ApiKind::HandlerSendMessage: {
                if (in.srcs.empty())
                    break;
                // aux -1 = any `what` sent through this handler.
                for (int h : _result.pointsTo(node, in.srcs[0])) {
                    _enableSites[{EnablementKind::Message, h, -1}]
                        .push_back({node, {}});
                }
                ++_stats.enableSites;
                break;
            }
            case ApiKind::SetListener: {
                if (in.srcs.size() < 2)
                    break;
                const std::string cb =
                    framework::KnownApis::listenerCallback(
                        in.method.methodName);
                if (cb.empty())
                    break;
                const int slot = slotOf(cb);
                if (framework::KnownApis::isListenerClear(*m, idx)) {
                    _hasDisableSite[node] = 1;
                    ++_stats.disableSites;
                    break;
                }
                EnableSite site{node, {}};
                for (int l : _result.pointsTo(node, in.srcs[1]))
                    site.listeners.push_back(l);
                for (int v : _result.pointsTo(node, in.srcs[0])) {
                    _enableSites[{EnablementKind::Listener, v, slot}]
                        .push_back(site);
                }
                ++_stats.enableSites;
                break;
            }
            case ApiKind::UnregisterReceiver:
            case ApiKind::HandlerRemove: {
                _hasDisableSite[node] = 1;
                ++_stats.disableSites;
                break;
            }
            default:
                break;
            }
        }
    }
}

void
EnablementAnalysis::buildRecords()
{
    const CallGraph &cg = _result.cg;

    // Group spawn edges by action: one action's edges differ only by
    // the creator node's context, never by the spawn site.
    std::unordered_map<int, std::vector<const SpawnEdge *>> edges_of;
    for (const SpawnEdge &e : cg.spawns())
        edges_of[e.actionId].push_back(&e);

    for (const Action &a : _result.actions.all()) {
        EnablementKind kind;
        switch (a.kind) {
        case ActionKind::Receive:
            kind = EnablementKind::Receiver;
            break;
        case ActionKind::PostedRunnable:
            kind = EnablementKind::Runnable;
            break;
        case ActionKind::PostedMessage:
            kind = EnablementKind::Message;
            break;
        case ActionKind::Gui:
            kind = EnablementKind::Listener;
            break;
        default:
            continue; // XmlGui & co. have no disable API
        }
        auto it = edges_of.find(a.id);
        if (it == edges_of.end())
            continue; // harness-spawned (e.g. manifest receiver)

        // Union the operand objects over every spawn edge; the record
        // exists only when each relevant union is a singleton
        // (must-alias, mirroring refuteWithLockSets).
        ObjSet objs;     // receiver | handler | view
        ObjSet partners; // runnable | listener
        bool conforms = true;
        for (const SpawnEdge *e : it->second) {
            const air::Method *m = _result.sites.methodOf(e->site);
            const int idx = _result.sites.instrOf(e->site);
            if (m == nullptr || idx < 0) {
                conforms = false;
                break;
            }
            const air::Instruction &in = m->instr(idx);
            if (!in.isInvoke() || in.srcs.size() < 2) {
                conforms = false;
                break;
            }
            using framework::ApiKind;
            const ApiKind api = _apis.classify(in.method);
            switch (kind) {
            case EnablementKind::Receiver:
                conforms = api == ApiKind::RegisterReceiver;
                if (conforms) {
                    for (int o :
                         _result.pointsTo(e->creator, in.srcs[1]))
                        objs.insert(o);
                }
                break;
            case EnablementKind::Runnable:
                // View.post / runOnUiThread spawns have no handler and
                // no matching remove API.
                conforms = api == ApiKind::HandlerPost;
                if (conforms) {
                    for (int h :
                         _result.pointsTo(e->creator, in.srcs[0]))
                        objs.insert(h);
                    for (int r :
                         _result.pointsTo(e->creator, in.srcs[1]))
                        partners.insert(r);
                }
                break;
            case EnablementKind::Message:
                conforms = api == ApiKind::HandlerSendMessage &&
                           a.messageWhat >= 0;
                if (conforms) {
                    for (int h :
                         _result.pointsTo(e->creator, in.srcs[0]))
                        objs.insert(h);
                }
                break;
            case EnablementKind::Listener:
                conforms =
                    api == ApiKind::SetListener &&
                    !framework::KnownApis::isListenerClear(*m, idx);
                if (conforms) {
                    for (int v :
                         _result.pointsTo(e->creator, in.srcs[0]))
                        objs.insert(v);
                    for (int l :
                         _result.pointsTo(e->creator, in.srcs[1]))
                        partners.insert(l);
                }
                break;
            }
            if (!conforms)
                break;
        }
        if (!conforms || !singleton(objs))
            continue;

        Record rec;
        switch (kind) {
        case EnablementKind::Receiver:
            rec.key = {kind, only(objs), 0};
            break;
        case EnablementKind::Runnable:
            if (!singleton(partners))
                continue;
            rec.key = {kind, only(objs), only(partners)};
            break;
        case EnablementKind::Message:
            rec.key = {kind, only(objs), a.messageWhat};
            break;
        case EnablementKind::Listener:
            if (!singleton(partners))
                continue;
            rec.key = {kind, only(objs), slotOf(a.callbackName)};
            rec.listener = only(partners);
            break;
        }
        _records.emplace(a.id, rec);
        ++_stats.trackedActions;
    }
}

void
EnablementAnalysis::buildDisablers()
{
    // Solve the typestate only on entry callbacks that directly
    // contain a disable site; memoize per entry node (lifecycle
    // instances of one callback share their facts).
    std::map<NodeId, TsDomain> memo;
    for (const Action &a : _result.actions.all()) {
        const NodeId entry = a.entryNode;
        if (entry < 0 ||
            entry >= static_cast<NodeId>(_hasDisableSite.size()) ||
            !_hasDisableSite[entry]) {
            continue;
        }
        auto it = memo.find(entry);
        if (it == memo.end())
            it = memo.emplace(entry, solveTypestate(entry)).first;
        if (it->second.empty())
            continue;
        _disablers.push_back({a.id, it->second});
        ++_stats.disablers;
    }
}

EnablementAnalysis::TsDomain
EnablementAnalysis::solveTypestate(NodeId node) const
{
    const air::Method *m = _result.cg.node(node).method;
    if (m == nullptr || m->instrs().empty())
        return {};
    const Cfg &cfg = _result.facts.cfg(*m);

    // Per-invoke transitive may-enable mask of the resolved callees.
    std::unordered_map<int, uint8_t> callee_mask;
    for (const CGEdge &e : _result.cg.edgesOf(node)) {
        if (_result.sites.methodOf(e.site) != m)
            continue;
        callee_mask[_result.sites.instrOf(e.site)] |=
            _mayEnable[e.callee];
    }

    const TypestateProblem problem{_result, _apis,       node,
                                   *m,      _slots,      callee_mask};
    const DataflowResult<TsDomain> solved = solveDataflow(cfg, problem);

    // Exit facts: meet over the reached return blocks (throw paths
    // excluded — an exception aborts the callback, so facts holding on
    // every *normal* completion are what later actions observe).
    TsDomain exit;
    bool first = true;
    for (const BasicBlock &b : cfg.blocks()) {
        if (!solved.reached[b.id] || b.first > b.last)
            continue;
        const air::Opcode op = m->instr(b.last).op;
        if (op != air::Opcode::Return && op != air::Opcode::ReturnVoid)
            continue;
        if (first) {
            exit = solved.atExit[b.id];
            first = false;
        } else {
            problem.merge(exit, solved.atExit[b.id]);
        }
    }
    return first ? TsDomain{} : exit;
}

bool
EnablementAnalysis::reEnableSafe(const Record &rec, int disabler,
                                 const ReachesFn &reaches) const
{
    // Every site that may re-enable the key must belong to actions
    // ordered before the disabler (or be inside the disabler itself,
    // where the exit facts already account for it). This also forces
    // the original registration to be ordered before the disabler.
    const CallGraph &cg = _result.cg;
    auto check = [&](const std::vector<EnableSite> &sites) {
        for (const EnableSite &site : sites) {
            if (rec.key.kind == EnablementKind::Listener) {
                // A set of a *different* listener object does not
                // re-enable this action's callback.
                bool may_bind = false;
                for (ObjId l : site.listeners)
                    may_bind = may_bind || l == rec.listener;
                if (!may_bind)
                    continue;
            }
            for (int owner : cg.actionsOf(site.node)) {
                if (owner != disabler && !reaches(owner, disabler))
                    return false;
            }
        }
        return true;
    };

    auto it = _enableSites.find(rec.key);
    if (it != _enableSites.end() && !check(it->second))
        return false;
    if (rec.key.kind == EnablementKind::Message) {
        // Wildcard sends through the same handler hit every `what`.
        auto any = _enableSites.find(
            {EnablementKind::Message, rec.key.obj, -1});
        if (any != _enableSites.end() && !check(any->second))
            return false;
    }
    return true;
}

bool
EnablementAnalysis::disabledBefore(int a1, int a2,
                                   const ReachesFn &reaches)
{
    ++_stats.queries;
    if (a1 == a2)
        return false;
    auto rec_it = _records.find(a1);
    if (rec_it == _records.end())
        return false;
    const Record &rec = rec_it->second;
    const Action &act1 = _result.actions.get(a1);
    if (!act1.runsOnLooper())
        return false;
    const ObjId looper1 = _result.looperOfAction(a1);
    if (looper1 < 0)
        return false;

    for (const Disabler &d : _disablers) {
        if (d.action == a1)
            continue;
        auto fact = d.exitFacts.find(rec.key);
        if (fact == d.exitFacts.end())
            continue;
        const bool disables =
            fact->second.off ||
            (rec.key.kind == EnablementKind::Listener &&
             fact->second.bound >= 0 &&
             fact->second.bound != rec.listener);
        if (!disables)
            continue;

        // (a) the disabler serializes with a1 on the same looper, so
        // a1's instances run entirely before the disabler or never.
        const Action &da = _result.actions.get(d.action);
        if (!da.runsOnLooper() ||
            _result.looperOfAction(d.action) != looper1) {
            continue;
        }
        // (b) the disabler happens-before a2 — or *is* a1's creator,
        // in which case a1 is disabled from birth.
        if (!reaches(d.action, a2) && d.action != act1.creator)
            continue;
        // (c) nothing re-enables the key after the disabler.
        if (!reEnableSafe(rec, d.action, reaches))
            continue;
        ++_stats.exonerated;
        return true;
    }
    return false;
}

} // namespace sierra::analysis

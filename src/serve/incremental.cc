#include "incremental.hh"

#include <map>

#include "util/trace.hh"

namespace sierra::serve {

namespace store = analysis::store;

uint64_t
IncrementalAnalyzer::optionsFingerprint(const SierraOptions &o)
{
    // Two submissions under different report-affecting options must
    // never share artifacts, while jobs and metrics are free to vary
    // (the pipeline is deterministic in both). A field added to the
    // options that can change a report must be folded here
    // (incremental_test flips each folded field in turn).
    uint64_t h = store::fnv64("sierra-options");
    auto fold = [&h](auto... v) {
        ((h = store::mixHash(h, static_cast<uint64_t>(v))), ...);
    };
    for (const Stage &stage : kStages) {
        if (stage.toggle)
            fold(o.*stage.toggle);
    }
    const analysis::ContextOptions &ctx = o.pta.ctx;
    const symbolic::ExecutorOptions &exec = o.refuter.exec;
    fold(o.icc, ctx.policy, ctx.k, ctx.heapK, ctx.inflatedViewContext,
         o.pta.maxActions, o.pta.indexSensitiveArrays);
    fold(o.hb.enableRule4, o.hb.enableRule5, o.hb.enableRule6,
         o.hb.rule5MaxStates, o.racy.requireSameLooper);
    fold(o.refuter.maxActionPairsPerRace, exec.maxPaths, exec.maxDepth,
         exec.maxSteps, exec.maxCallDepth, exec.useNodeCache,
         exec.useConstFacts);
    return h;
}

IncrementalResult
IncrementalAnalyzer::analyze(framework::App &app,
                             const SierraOptions &options)
{
    SIERRA_TRACE_SPAN(span, "stage", "stage.store",
                      util::trace::arg("app", app.name()));

    IncrementalResult res;

    // Harness generation happens at detector construction, so hashing
    // after it covers the synthetic harness classes too -- they are
    // part of every harness's footprint.
    SierraDetector detector(app, options);

    const uint64_t opts_hash = optionsFingerprint(options);
    const std::map<std::string, uint64_t> hashes =
        store::hashMethods(app);
    const uint64_t shape = store::mixHash(store::shapeHash(app),
                                          opts_hash);
    res.shapeHash = store::hashHex(shape);
    res.methodsTotal = static_cast<int>(hashes.size());

    // Diff against the previous submission of the same app name. The
    // name is hashed into the key: any name, even "..", is one file.
    const std::string app_key = store::hashHex(store::fnv64(app.name()));
    std::set<std::string> changed;
    if (auto prev = _store.get("methods", app_key)) {
        res.firstSubmission = false;
        const std::map<std::string, uint64_t> prev_index =
            store::parseMethodIndex(*prev);
        for (const auto &[name, hash] : hashes) {
            auto it = prev_index.find(name);
            if (it == prev_index.end() || it->second != hash)
                changed.insert(name);
        }
        for (const auto &[name, hash] : prev_index) {
            if (!hashes.count(name))
                changed.insert(name); // removed bodies dirty callers
        }
        if (auto prev_shape = _store.get("shape", app_key))
            res.shapeChanged = *prev_shape != res.shapeHash;
        else
            res.shapeChanged = true;
    } else {
        res.firstSubmission = true;
        for (const auto &[name, hash] : hashes)
            changed.insert(name);
        res.shapeChanged = true;
    }
    res.methodsChanged = static_cast<int>(changed.size());

    // The previous dependency index is read only where it is used: a
    // clean resubmission neither widens a change nor rolls one forward.
    store::DepIndex deps;
    bool deps_loaded = res.firstSubmission;
    auto load_deps = [&] {
        if (deps_loaded)
            return;
        deps_loaded = true;
        if (auto blob = _store.get("deps", app_key))
            deps = store::DepIndex::parse(*blob);
    };
    if (!changed.empty())
        load_deps();
    res.dirty = deps.dirtyClosure(changed);

    // Per-harness reuse. The artifact key folds the activity into the
    // shape+options hash; the stored footprint then proves the
    // artifact is still valid under the *current* method bodies.
    store::DepIndex new_deps;
    int hits = 0, misses = 0;
    auto harness_key = [shape](const harness::HarnessPlan &plan) {
        return store::hashHex(
            store::mixHash(shape, store::fnv64(plan.activityClass)));
    };
    HarnessReuse reuse;
    reuse.tryLoad = [&](const harness::HarnessPlan &plan,
                        HarnessArtifact &out) {
        auto blob = _store.get("harness", harness_key(plan));
        if (!blob)
            return false;
        auto parsed = parseArtifact(*blob);
        if (!parsed || parsed->activity != plan.activityClass)
            return false;
        for (const auto &[method, hash] : parsed->footprint) {
            auto it = hashes.find(method);
            if (it == hashes.end() || it->second != hash)
                return false; // a reachable body changed: recompute
        }
        out = std::move(*parsed);
        ++hits;
        return true;
    };
    reuse.onComputed = [&](const harness::HarnessPlan &plan,
                           const HarnessAnalysis &ha,
                           const HarnessArtifact &art) {
        ++misses;
        _store.put("harness", harness_key(plan), serializeArtifact(art));
        // The summary graph's callee edges feed the dependency index.
        if (ha.inter) {
            for (const auto &sum : ha.inter->exportSummaries()) {
                for (const std::string &callee : sum.callees)
                    new_deps.addEdge(sum.method, callee);
            }
        }
    };

    res.report = detector.analyze(options, &reuse);
    res.reportText = formatReport(res.report, 50, /*with_times=*/false);
    res.harnessesTotal = res.report.harnesses;
    res.harnessesReused = hits;
    res.harnessesComputed = misses;

    // Roll the app's incremental state forward: union the dependency
    // edges (reused harnesses contributed none, but their old edges
    // are still valid -- their methods did not change), then prune to
    // methods that still exist. A fully clean re-submission (nothing
    // changed, nothing computed) leaves the state bit-identical, so
    // skip the re-serialization entirely.
    const bool state_dirty = res.firstSubmission || !changed.empty() ||
                             new_deps.numEdges() > 0 ||
                             res.shapeChanged;
    if (state_dirty) {
        load_deps();
        deps.merge(new_deps);
        std::set<std::string> keep;
        for (const auto &[name, hash] : hashes)
            keep.insert(name);
        deps.prune(keep);
        _store.put("methods", app_key,
                   store::serializeMethodIndex(hashes));
        _store.put("deps", app_key, deps.serialize());
        _store.put("shape", app_key, res.shapeHash);
    }

    if (_metrics) {
        _metrics->add("store.harness_hits", hits);
        _metrics->add("store.harness_misses", misses);
        _metrics->add("store.methods_changed", res.methodsChanged);
        _metrics->add("store.dirty_methods",
                      static_cast<int64_t>(res.dirty.size()));
    }
    return res;
}

} // namespace sierra::serve

#include "detector.hh"

#include <algorithm>
#include <chrono>
#include <map>
#include <sstream>
#include <tuple>

#include "air/logging.hh"
#include "analysis/method_facts.hh"
#include "framework/known_api.hh"
#include "util/thread_pool.hh"
#include "util/trace.hh"

namespace sierra {

namespace {

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** `stage.<name>.seconds`: the stage's duration histogram. */
std::string
histogramName(const Stage &stage)
{
    return std::string("stage.") + stage.name + ".seconds";
}

/**
 * Run `fn` as one stage step under a `stage` trace span and return the
 * seconds to charge it: its wall time, or the CPU `fn` reports when
 * that is larger (work fanned out to worker threads, whose clocks the
 * calling thread's wall time does not see).
 */
template <typename Fn>
double
timeStage([[maybe_unused]] const std::string &span_name,
          [[maybe_unused]] const char *arg_key,
          [[maybe_unused]] const std::string &arg_value, Fn &&fn)
{
    auto t0 = std::chrono::steady_clock::now();
    double cpu;
    {
        SIERRA_TRACE_SPAN(span, "stage", span_name,
                          util::trace::arg(arg_key, arg_value));
        cpu = fn();
    }
    return std::max(secondsSince(t0), cpu);
}

/**
 * The app-level prelude: the class hierarchy, the per-method facts
 * table and, with the dataflow stage on, the field-effect summaries,
 * which every harness task shares. All are pure functions of the
 * module (complete once harness generation has added its `main`
 * methods) and are only read after construction, so building them
 * once per analyze() instead of once per harness removes the dominant
 * redundant work from the plan fan-out. Points `options` at them,
 * charges the dataflow stage to `times` and returns the summaries,
 * which must outlive every task.
 */
std::unique_ptr<analysis::FieldEffects>
buildSharedFacts(framework::App &app, SierraOptions &options,
                 StageTimes &times)
{
    options.pta.sharedCha =
        std::make_shared<analysis::ClassHierarchy>(app.module());
    options.pta.sharedFacts =
        std::make_shared<analysis::MethodFacts>(app.module());
    std::unique_ptr<analysis::FieldEffects> effects;
    const Stage &dataflow = stageOf(StageId::Dataflow);
    if (stageOn(dataflow, options) && !options.racy.effects) {
        double seconds = timeStage(
            std::string("stage.") + dataflow.name, "app", app.name(),
            [&] {
                effects = std::make_unique<analysis::FieldEffects>(
                    app.module(), *options.pta.sharedCha);
                return 0.0;
            });
        options.racy.effects = effects.get();
        times[dataflow.id] += seconds;
        times.totalCpu += seconds;
    }
    return effects;
}

/** What one harness's stage steps share while they run. */
struct HarnessContext {
    framework::App &app;
    const SierraOptions &options;
    const harness::HarnessPlan &plan;
    HarnessAnalysis &ha;
    //! options.racy plus this harness's stats and escape keep mask
    race::RacyOptions racy;
    std::vector<char> live; //!< escape's per-access keep mask
    //! lock sets, shared by the lockset and deadlock stages
    std::unique_ptr<analysis::LockSetAnalysis> locks;

    std::function<bool(int, int)>
    reaches() const
    {
        return [shbg = ha.shbg.get()](int a, int b) {
            return shbg->reaches(a, b);
        };
    }
};

/**
 * One run step of a per-harness stage, timed into its stage's slot
 * and spanned as `stage.<name><part>`. `run` returns worker CPU
 * seconds the task thread's clock does not see, or 0 (see timeStage).
 */
struct StageStep {
    StageId stage;
    const char *part; //!< span-name suffix ("" for single-step stages)
    double (*run)(HarnessContext &);
};

/** The per-harness steps in run order (dataflow is app-level). */
const StageStep kHarnessSteps[] = {
    {StageId::CgPa, "",
     [](HarnessContext &c) {
         analysis::PointsToAnalysis pta(c.app, c.plan, c.options.pta);
         c.ha.pta = pta.run();
         return 0.0;
     }},
    {StageId::Hbg, "",
     [](HarnessContext &c) {
         hb::HbBuilder builder(*c.ha.pta, c.plan, c.app, c.options.hb);
         c.ha.shbg = builder.build();
         return 0.0;
     }},
    // Racy-pair detection takes two steps, around escape.
    {StageId::Racy, ".extract",
     [](HarnessContext &c) {
         c.ha.accesses = race::extractAccesses(*c.ha.pta);
         c.ha.accessesTotal = static_cast<int>(c.ha.accesses.size());
         return 0.0;
     }},
    // Drop accesses whose every base object is thread-local before the
    // quadratic pair loop (report-preserving, see analysis/escape.hh).
    {StageId::Escape, "",
     [](HarnessContext &c) {
         analysis::EscapeAnalysis esc(*c.ha.pta);
         c.live = race::escapeLiveMask(esc, c.ha.accesses);
         c.racy.liveAccess = &c.live;
         c.ha.accessesDropped = static_cast<int>(
             std::count(c.live.begin(), c.live.end(), 0));
         return 0.0;
     }},
    {StageId::Racy, ".pairs",
     [](HarnessContext &c) {
         c.ha.pairs = race::findRacyPairs(*c.ha.pta, *c.ha.shbg,
                                          c.ha.accesses, c.racy);
         return 0.0;
     }},
    // Refute pairs protected by a common must-held monitor on every
    // (background-involving) action pair, so they never reach the
    // expensive symbolic refuter.
    {StageId::Lockset, "",
     [](HarnessContext &c) {
         c.locks = std::make_unique<analysis::LockSetAnalysis>(*c.ha.pta);
         c.ha.locksetRefuted = race::refuteWithLockSets(
             *c.ha.pta, *c.locks, c.ha.accesses, c.ha.pairs);
         return 0.0;
     }},
    // Cyclic lock acquisitions over the same lock-set substrate. Purely
    // additive: it refutes no pairs, it only produces the `deadlocks:`
    // findings.
    {StageId::Deadlock, "",
     [](HarnessContext &c) {
         if (!c.locks) {
             c.locks =
                 std::make_unique<analysis::LockSetAnalysis>(*c.ha.pta);
         }
         c.ha.deadlocks = analysis::findDeadlocks(
             *c.ha.pta, *c.locks, c.reaches(), &c.ha.deadlockStats);
         c.locks.reset();
         return 0.0;
     }},
    // Registration typestate composed with SHBG reachability: refute
    // pairs whose callback is must-disabled at every point the other
    // action can run. Demand-driven: the scan and typestate solves only
    // happen when pairs survived lockset.
    {StageId::Enablement, "",
     [](HarnessContext &c) {
         if (c.ha.survivingRaceCount() > 0) {
             const framework::KnownApis apis(c.app.module());
             analysis::EnablementAnalysis en(*c.ha.pta, apis);
             c.ha.enablementRefuted =
                 race::refuteWithEnablement(en, c.reaches(), c.ha.pairs);
             c.ha.enablementStats = en.stats();
         }
         return 0.0;
     }},
    // Interprocedural constant summaries for the symbolic refuter
    // (setter parameters, callee returns, must-write-constant call
    // effects) plus the use-after-destroy typestate client.
    {StageId::Ifds, "",
     [](HarnessContext &c) {
         c.ha.inter = std::make_unique<analysis::InterConstants>(*c.ha.pta);
         c.ha.useAfterDestroy = analysis::findUseAfterDestroy(
             *c.ha.pta, *c.ha.inter, c.reaches());
         return 0.0;
     }},
    // The refuter may shard across worker threads; their summed
    // thread-CPU is charged whenever it exceeds the task thread's wall
    // clock, so worker CPU is never lost.
    {StageId::Refutation, "",
     [](HarnessContext &c) {
         symbolic::RefuterOptions refuter_options = c.options.refuter;
         refuter_options.exec.inter = c.ha.inter.get();
         c.ha.refutation = symbolic::refuteRaces(
             *c.ha.pta, c.ha.accesses, c.ha.pairs, refuter_options);
         return c.ha.refutation.cpuSeconds;
     }},
    // Classify surviving pairs by whether losing the race dereferences
    // null (analysis/nullflow.hh). Demand-driven like enablement.
    {StageId::Nullflow, "",
     [](HarnessContext &c) {
         if (c.ha.survivingRaceCount() > 0) {
             const framework::KnownApis apis(c.app.module());
             analysis::NullFlowAnalysis nf(*c.ha.pta, c.ha.inter.get(),
                                           apis, c.reaches());
             c.ha.nullflowClassified = race::classifyWithNullFlow(
                 nf, c.ha.accesses, c.ha.pairs);
             c.ha.nullflowStats = nf.stats();
         }
         return 0.0;
     }},
};

/**
 * Fold one harness task's counters and stage times into the metrics
 * registry. Called from the serial plan-order merge, so the registry
 * contents are identical at every jobs count (the catalog of names
 * lives in docs/OBSERVABILITY.md; metrics_test pins the counters that
 * mirror report fields).
 */
void
fillMetrics(util::metrics::Registry &m, const HarnessAnalysis &ha,
            const StageTimes &t)
{
    const analysis::PtaStats &pta = ha.pta->stats;
    m.add("pta.worklist_iterations", pta.worklistIterations);
    m.add("pta.local_passes", pta.localPasses);
    m.add("pta.instr_visits", pta.instrVisits);
    m.add("pta.delta_props", pta.deltaSkips);
    m.add("arena.bytes_allocated",
          static_cast<int64_t>(ha.pta->arena.bytesAllocated()));
    m.add("pta.cg_nodes", ha.pta->cg.numNodes());
    m.add("pta.actions", ha.numActions());

    m.add("shbg.direct_edges",
          static_cast<int64_t>(ha.shbg->directEdges().size()));
    m.add("shbg.closure_pairs", ha.hbEdges());

    m.add("race.accesses_extracted", ha.accessesTotal);
    m.add("race.accesses_dropped", ha.accessesDropped);
    m.add("race.access_pairs_considered",
          ha.racyStats.accessPairsConsidered);
    m.add("race.prefilter_skipped", ha.racyStats.prefilterSkipped);
    m.add("race.alias_checked", ha.racyStats.aliasChecked);
    m.add("race.racy_pairs", ha.racyPairCount());
    m.add("race.lockset_refuted", ha.locksetRefuted);
    m.add("race.enablement_refuted", ha.enablementRefuted);

    const analysis::EnablementStats &en = ha.enablementStats;
    m.add("enablement.tracked_actions", en.trackedActions);
    m.add("enablement.enable_sites", en.enableSites);
    m.add("enablement.disable_sites", en.disableSites);
    m.add("enablement.disablers", en.disablers);
    m.add("enablement.queries", en.queries);
    m.add("enablement.exonerated", en.exonerated);

    const symbolic::RefutationStats &ref = ha.refutation;
    m.add("symbolic.refuted", ref.refuted);
    m.add("symbolic.survived", ref.survived);
    m.add("symbolic.timed_out", ref.timedOut);
    m.add("symbolic.queries", ref.exec.queries);
    m.add("symbolic.paths_explored", ref.exec.pathsExplored);
    m.add("symbolic.states_expanded", ref.exec.statesExpanded);
    m.add("symbolic.cache_hits", ref.exec.cacheHits);
    m.add("symbolic.budget_exhausted", ref.exec.budgetExhausted);
    m.add("symbolic.const_pruned", ref.exec.constPruned);
    m.add("symbolic.inter_pruned", ref.exec.interPruned);
    m.add("symbolic.inter_applied", ref.exec.interApplied);

    if (ha.inter) {
        const analysis::IfdsStats &ifds = ha.inter->stats();
        m.add("ifds.methods", ifds.methods);
        m.add("ifds.summary_computations", ifds.summaryComputations);
        m.add("ifds.summary_reuses", ifds.summaryReuses);
        m.add("ifds.must_write_facts", ifds.mustWriteFacts);
        m.add("ifds.budget_exhausted", ifds.budgetExhausted ? 1 : 0);
    }
    m.add("ifds.use_after_destroy",
          static_cast<int64_t>(ha.useAfterDestroy.size()));

    const analysis::NullFlowStats &nf = ha.nullflowStats;
    m.add("nullflow.queries", nf.queries);
    m.add("nullflow.sinks_examined", nf.sinksExamined);
    m.add("nullflow.stores_indexed", nf.storesIndexed);
    m.add("nullflow.null_stores", nf.nullStores);
    m.add("nullflow.guarded", nf.guarded);
    m.add("nullflow.harmful", nf.harmful);
    m.add("nullflow.classified", ha.nullflowClassified);

    m.add("deadlock.observations", ha.deadlockStats.observations);
    m.add("deadlock.lock_nodes", ha.deadlockStats.lockNodes);
    m.add("deadlock.lock_edges", ha.deadlockStats.lockEdges);
    m.add("deadlock.cycles_examined", ha.deadlockStats.cyclesExamined);
    m.add("deadlock.findings",
          static_cast<int64_t>(ha.deadlocks.size()));

    // Per-pair refutation provenance (RefutedBy kinds).
    int64_t by_none = 0, by_lockset = 0, by_enablement = 0,
            by_symbolic = 0;
    for (const race::RacyPair &p : ha.pairs) {
        switch (p.refutedBy) {
          case race::RefutedBy::None: ++by_none; break;
          case race::RefutedBy::Lockset: ++by_lockset; break;
          case race::RefutedBy::Enablement: ++by_enablement; break;
          case race::RefutedBy::Symbolic: ++by_symbolic; break;
        }
    }
    m.add("refuted_by.none", by_none);
    m.add("refuted_by.lockset", by_lockset);
    m.add("refuted_by.enablement", by_enablement);
    m.add("refuted_by.symbolic", by_symbolic);

    // Per-harness stage durations as histograms (seconds); app-level
    // stages are observed once per analyze() instead (see analyze()).
    for (const Stage &stage : kStages) {
        if (!stage.appLevel)
            m.observe(histogramName(stage), t[stage.id]);
    }
    m.observe("harness.cpu.seconds", t.totalCpu);
}

} // namespace

int
HarnessAnalysis::survivingRaceCount() const
{
    return static_cast<int>(
        std::count_if(pairs.begin(), pairs.end(),
                      [](const race::RacyPair &p) { return !p.refuted; }));
}

SierraDetector::SierraDetector(framework::App &app)
    : SierraDetector(app, SierraOptions{})
{
}

SierraDetector::SierraDetector(framework::App &app,
                               const SierraOptions &options)
    : _app(app)
{
    harness::HarnessGenerator gen(app, options.icc);
    _plans = gen.generateAll();
    if (gen.icc())
        _iccStats = gen.icc()->stats();
}

const harness::HarnessPlan &
SierraDetector::planFor(const std::string &activity)
{
    for (const auto &plan : _plans) {
        if (plan.activityClass == activity)
            return plan;
    }
    fatal("no harness for activity ", activity);
}

HarnessAnalysis
SierraDetector::runHarness(const harness::HarnessPlan &plan,
                           const SierraOptions &options,
                           StageTimes &times)
{
    HarnessAnalysis ha;
    ha.activity = plan.activityClass;
    SIERRA_TRACE_SPAN(task_span, "task", "harness",
                      util::trace::arg("activity", plan.activityClass));

    HarnessContext ctx{_app, options, plan, ha, options.racy, {}, {}};
    ctx.racy.stats = &ha.racyStats;
    for (const StageStep &step : kHarnessSteps) {
        const Stage &stage = stageOf(step.stage);
        if (!stageOn(stage, options))
            continue;
        double seconds =
            timeStage(std::string("stage.") + stage.name + step.part,
                      "activity", ha.activity,
                      [&] { return step.run(ctx); });
        times[step.stage] += seconds;
        times.totalCpu += seconds;
    }
    race::prioritize(*ha.pta, ha.accesses, ha.pairs);
    return ha;
}

HarnessAnalysis
SierraDetector::analyzeActivity(const std::string &activity,
                                const SierraOptions &options)
{
    SierraOptions task_options = options;
    StageTimes times;
    auto effects = buildSharedFacts(_app, task_options, times);
    return runHarness(planFor(activity), task_options, times);
}

AppReport
SierraDetector::analyze(const SierraOptions &options)
{
    return analyze(options, nullptr);
}

AppReport
SierraDetector::analyze(const SierraOptions &options,
                        const HarnessReuse *reuse)
{
    AppReport report;
    report.app = _app.name();
    report.harnesses = static_cast<int>(_plans.size());
    for (const Stage &stage : kStages)
        report.stagesOn[stageIndex(stage.id)] = stageOn(stage, options);

    const int num_plans = static_cast<int>(_plans.size());
    const int jobs = util::resolveJobs(options.jobs);
    const int plan_jobs = std::min(jobs, std::max(num_plans, 1));

    // Parallelism left over after the plan-level fan-out goes to each
    // task's sharded refutation (unless the caller pinned it).
    SierraOptions task_options = options;
    if (task_options.refuter.jobs <= 0)
        task_options.refuter.jobs = std::max(1, jobs / plan_jobs);

    auto t_total = std::chrono::steady_clock::now();
    SIERRA_TRACE_SPAN(analyze_span, "pipeline", "analyze",
                      util::trace::arg("app", _app.name()));

    // Reuse pass: consult the store serially in plan order before the
    // fan-out. A hit replaces the whole harness pipeline with a loaded
    // artifact; the merge below reads only artifact fields, so hits
    // and misses are indistinguishable in the report bytes.
    std::vector<HarnessArtifact> artifacts(
        static_cast<size_t>(std::max(num_plans, 1)));
    std::vector<char> reused(
        static_cast<size_t>(std::max(num_plans, 1)), 0);
    if (reuse && reuse->tryLoad) {
        SIERRA_TRACE_SPAN(span, "stage", "stage.store",
                          util::trace::arg("app", _app.name()));
        for (int i = 0; i < num_plans; ++i) {
            if (reuse->tryLoad(_plans[i], artifacts[i]))
                reused[i] = 1;
        }
    }
    const int cold_plans = static_cast<int>(
        std::count(reused.begin(), reused.begin() + num_plans, 0));

    // A fully warm submission runs no task and needs no shared facts.
    StageTimes app_times;
    std::unique_ptr<analysis::FieldEffects> effects;
    if (cold_plans > 0)
        effects = buildSharedFacts(_app, task_options, app_times);

    // One task per harness plan. Each task reads only shared-immutable
    // state and owns everything it produces, so tasks are independent;
    // results land in plan order regardless of completion order. Plans
    // answered from the store need no task at all -- on a fully warm
    // submission the fan-out (and its worker pool) is skipped.
    std::vector<StageTimes> task_times(
        static_cast<size_t>(std::max(num_plans, 1)));
    std::vector<HarnessAnalysis> analyses(
        static_cast<size_t>(std::max(num_plans, 1)));
    if (cold_plans > 0) {
        analyses = util::parallelMap<HarnessAnalysis>(
            std::min(plan_jobs, cold_plans), num_plans, [&](int i) {
                if (reused[i])
                    return HarnessAnalysis{};
                return runHarness(_plans[i], task_options, task_times[i]);
            });
    }

    // Project fresh results into artifacts (serially, in plan order)
    // and offer them for persistence.
    for (int i = 0; i < num_plans; ++i) {
        if (reused[i])
            continue;
        artifacts[i] = makeArtifact(analyses[i]);
        if (reuse && reuse->onComputed)
            reuse->onComputed(_plans[i], analyses[i], artifacts[i]);
    }

    SIERRA_TRACE_SPAN(merge_span, "pipeline", "merge",
                      util::trace::arg("app", _app.name()));

    // Everything below is the deterministic merge, done serially in
    // plan order so the dedup map, aggregate counters and timing sums
    // are byte-identical at every jobs count.

    // App-level dedup across harnesses: a race keyed by its two access
    // sites (method + instruction) and location key. Keyed on stable
    // method names — never on air::Method pointers, whose run-to-run
    // values would make the iteration order nondeterministic.
    struct Key {
        std::string m1;
        int i1;
        std::string m2;
        int i2;
        std::string key;
        bool
        operator<(const Key &o) const
        {
            return std::tie(m1, i1, m2, i2, key) <
                   std::tie(o.m1, o.i1, o.m2, o.i2, o.key);
        }
    };
    struct Agg {
        AppRace race;
        bool survivesSomewhere{false};
        //! a surviving instance has stamped the severity; refuted
        //! instances carry Unknown and must not wash out a verdict
        bool haveSeverity{false};
    };
    std::map<Key, Agg> dedup;

    int64_t max_pairs_total = 0;

    for (int i = 0; i < num_plans; ++i) {
        const HarnessArtifact &art = artifacts[i];
        const harness::HarnessPlan &plan = _plans[i];

        // Plan-order, associative sums: totalCpu equals the sum of
        // the per-stage fields no matter which order the tasks
        // *finished* in (they were accumulated per task, merged here
        // serially). Reused plans contribute zero times and no
        // metrics -- no pipeline work happened for them.
        report.times.add(task_times[i]);

        if (options.metrics && !reused[i])
            fillMetrics(*options.metrics, analyses[i], task_times[i]);

        report.accessesDropped += art.accessesDropped;
        report.locksetRefuted += art.locksetRefuted;
        report.enablementRefuted += art.enablementRefuted;

        // Use-after-destroy findings, deduplicated across harnesses in
        // plan order (findings are already sorted per harness, so the
        // merged list is deterministic at every jobs count).
        for (const auto &f : art.useAfterDestroy) {
            if (std::find(report.useAfterDestroy.begin(),
                          report.useAfterDestroy.end(),
                          f) == report.useAfterDestroy.end())
                report.useAfterDestroy.push_back(f);
        }

        // Deadlock findings, same plan-order dedup: cycles are already
        // canonically rotated and sorted per harness, so equal cycles
        // found by several harnesses collapse deterministically.
        for (const auto &f : art.deadlocks) {
            if (std::find(report.deadlocks.begin(),
                          report.deadlocks.end(),
                          f) == report.deadlocks.end())
                report.deadlocks.push_back(f);
        }

        report.actions += art.actions;
        report.hbEdges += art.hbEdges;
        int n = art.actions;
        max_pairs_total += static_cast<int64_t>(n) * (n - 1) / 2;

        for (const ArtifactRace &r : art.races) {
            Key key{r.m1, r.i1, r.m2, r.i2, r.key};
            Agg &agg = dedup[key];
            if (agg.race.description.empty()) {
                agg.race.description = r.description;
                agg.race.priority = r.priority;
                agg.race.fieldKey = r.key;
            }
            agg.race.activities.push_back(plan.activityClass);
            if (!r.refuted) {
                agg.survivesSomewhere = true;
                // Highest-rank verdict of any surviving instance wins
                // (strict >, plan order: deterministic at every jobs
                // count). Initialized from the first surviving row so
                // a Guarded verdict is representable at all.
                if (!agg.haveSeverity ||
                    analysis::nullVerdictRank(r.severity) >
                        analysis::nullVerdictRank(agg.race.severity)) {
                    agg.race.severity = r.severity;
                    agg.race.severityChain = r.severityChain;
                    agg.haveSeverity = true;
                }
            }
        }
        report.perHarness.push_back(std::move(analyses[i]));
    }

    report.racyPairs = static_cast<int>(dedup.size());
    for (auto &[key, agg] : dedup) {
        agg.race.refuted = !agg.survivesSomewhere;
        if (agg.survivesSomewhere) {
            ++report.afterRefutation;
            if (agg.race.severity == analysis::NullVerdict::Harmful)
                ++report.harmfulRaces;
            else if (agg.race.severity ==
                     analysis::NullVerdict::Guarded)
                ++report.guardedRaces;
        }
        report.races.push_back(std::move(agg.race));
    }
    // Severity-ranked order: harmful > unknown > guarded within the
    // surviving block. With the stage off every verdict is Unknown and
    // this degenerates to the pre-nullflow order exactly.
    std::sort(report.races.begin(), report.races.end(),
              [](const AppRace &a, const AppRace &b) {
                  if (a.refuted != b.refuted)
                      return !a.refuted;
                  int ra = analysis::nullVerdictRank(a.severity);
                  int rb = analysis::nullVerdictRank(b.severity);
                  if (ra != rb)
                      return ra > rb;
                  if (a.priority != b.priority)
                      return a.priority > b.priority;
                  return a.description < b.description;
              });

    report.orderedPct =
        max_pairs_total > 0
            ? 100.0 * static_cast<double>(report.hbEdges) /
                  static_cast<double>(max_pairs_total)
            : 0.0;
    // Fold in the app-level stages so totalCpu still equals the sum of
    // the stage slots.
    report.times.add(app_times);
    report.times.total = secondsSince(t_total);

    if (options.metrics) {
        util::metrics::Registry &m = *options.metrics;
        // App-level stages: one observation per analyze() that ran
        // any harness task.
        if (cold_plans > 0) {
            for (const Stage &stage : kStages) {
                if (stage.appLevel)
                    m.observe(histogramName(stage), app_times[stage.id]);
            }
        }
        // ICC scan counters: computed once at construction (harness
        // generation), flushed here so they land in the registry
        // exactly once per analyze() at every jobs count.
        m.add("icc.call_sites", _iccStats.callSites);
        m.add("icc.resolved", _iccStats.resolved);
        m.add("icc.unresolved", _iccStats.unresolved);
        m.add("icc.pending_sites", _iccStats.pendingSites);
        m.add("icc.activity_edges", _iccStats.activityEdges);
        // AIR instruction storage, shared by every harness.
        m.add("arena.bytes_allocated",
              static_cast<int64_t>(
                  _app.module().arena().bytesAllocated()));
        // Counters are monotone; raise the peak-RSS counter to the
        // current process peak rather than summing repeated reads.
        int64_t rss = util::metrics::peakRssBytes();
        int64_t have = m.counter("mem.peak_rss_bytes");
        if (rss > have)
            m.add("mem.peak_rss_bytes", rss - have);
    }
    return report;
}

std::string
formatReport(const AppReport &report, int max_races, bool with_times)
{
    std::ostringstream os;
    os << "=== SIERRA report for " << report.app << " ===\n";
    os << "harnesses: " << report.harnesses
       << "  actions: " << report.actions
       << "  HB edges: " << report.hbEdges << " ("
       << static_cast<int>(report.orderedPct + 0.5) << "% ordered)\n";
    os << "racy pairs: " << report.racyPairs
       << "  lockset-refuted: " << report.locksetRefuted;
    // Emitted only when the stage ran, so --no-enablement output is
    // byte-identical to the stage-less report.
    if (report.showsStage(StageId::Enablement))
        os << "  enablement-refuted: " << report.enablementRefuted;
    os << "  after refutation: " << report.afterRefutation;
    // Same gating for the nullflow severity tallies (--no-nullflow).
    if (report.showsStage(StageId::Nullflow)) {
        os << "  harmful: " << report.harmfulRaces
           << "  guarded: " << report.guardedRaces;
    }
    os << "  (thread-local accesses dropped: "
       << report.accessesDropped << ")\n";
    if (with_times) {
        os << "time: ";
        for (const Stage &stage : kStages) {
            if (report.showsStage(stage.id))
                os << stage.textKey << " " << report.times[stage.id]
                   << "s, ";
        }
        os << "total " << report.times.total << "s (cpu "
           << report.times.totalCpu << "s)\n";
    }
    int shown = 0;
    for (const auto &race : report.races) {
        if (race.refuted)
            continue;
        if (shown++ >= max_races) {
            os << "  ... (" << report.afterRefutation - max_races
               << " more)\n";
            break;
        }
        os << "  [p" << race.priority << "] " << race.description
           << "\n";
        // One severity tag per surviving pair, gated like the header
        // tallies so --no-nullflow output has no nullflow tokens.
        if (report.showsStage(StageId::Nullflow)) {
            os << "      severity: "
               << analysis::nullVerdictName(race.severity);
            if (!race.severityChain.empty())
                os << "  (" << race.severityChain << ")";
            os << "\n";
        }
    }
    if (!report.useAfterDestroy.empty()) {
        os << "use-after-destroy: "
           << report.useAfterDestroy.size() << "\n";
        for (const auto &f : report.useAfterDestroy)
            os << "  [uad] " << f.toString() << "\n";
    }
    if (!report.deadlocks.empty()) {
        os << "deadlocks: " << report.deadlocks.size() << "\n";
        for (const auto &f : report.deadlocks)
            os << "  [dl] " << f.toString() << "\n";
    }
    return os.str();
}

} // namespace sierra

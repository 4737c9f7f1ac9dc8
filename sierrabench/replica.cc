#include "replica.hh"

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>

#include "analysis/class_hierarchy.hh"
#include "analysis/escape.hh"
#include "analysis/lockset.hh"
#include "analysis/nullflow.hh"
#include "framework/known_api.hh"
#include "race/access.hh"
#include "util/thread_pool.hh"

namespace sierrabench {

namespace {

using Clock = std::chrono::steady_clock;

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

bool
anySurviving(const std::vector<sierra::race::RacyPair> &pairs)
{
    return std::any_of(pairs.begin(), pairs.end(),
                       [](const auto &p) { return !p.refuted; });
}

// One harness task: the stage sequence of SierraDetector::runHarness,
// each public call inside its own span.
sierra::HarnessAnalysis
replicateHarness(sierra::framework::App &app,
                 const sierra::harness::HarnessPlan &plan,
                 const sierra::SierraOptions &options, SpanRecorder &rec,
                 int parent, int64_t request)
{
    namespace analysis = sierra::analysis;
    namespace race = sierra::race;
    sierra::HarnessAnalysis ha;
    ha.activity = plan.activityClass;
    auto span = [&](const char *name) {
        return std::make_unique<ScopedSpan>(&rec, name, parent, request);
    };
    auto reaches = [&](int a, int b) { return ha.shbg->reaches(a, b); };

    if (auto s = span("analysis.pta")) {
        analysis::PointsToAnalysis pta(app, plan, options.pta);
        ha.pta = pta.run();
    }
    if (auto s = span("hb.shbg")) {
        sierra::hb::HbBuilder builder(*ha.pta, plan, app, options.hb);
        ha.shbg = builder.build();
    }
    std::unique_ptr<analysis::FieldEffects> effects;
    race::RacyOptions racy = options.racy;
    racy.stats = &ha.racyStats;
    if (options.effectPrefilter && !racy.effects) {
        auto s = span("analysis.effects");
        effects = std::make_unique<analysis::FieldEffects>(app.module(),
                                                           ha.pta->cha);
        racy.effects = effects.get();
    }
    if (auto s = span("race.extract")) {
        ha.accesses = race::extractAccesses(*ha.pta);
        ha.accessesTotal = static_cast<int>(ha.accesses.size());
    }
    std::vector<char> live;
    if (options.escapeFilter) {
        auto s = span("analysis.escape");
        analysis::EscapeAnalysis esc(*ha.pta);
        live = race::escapeLiveMask(esc, ha.accesses);
        racy.liveAccess = &live;
        ha.accessesDropped = static_cast<int>(
            std::count(live.begin(), live.end(), 0));
    }
    if (auto s = span("race.pairs"))
        ha.pairs = race::findRacyPairs(*ha.pta, *ha.shbg, ha.accesses, racy);

    std::unique_ptr<analysis::LockSetAnalysis> locks;
    if (options.locksetRefutation) {
        auto s = span("analysis.lockset");
        locks = std::make_unique<analysis::LockSetAnalysis>(*ha.pta);
        ha.locksetRefuted = race::refuteWithLockSets(*ha.pta, *locks,
                                                     ha.accesses, ha.pairs);
    }
    if (options.deadlock) {
        auto s = span("analysis.deadlock");
        if (!locks)
            locks = std::make_unique<analysis::LockSetAnalysis>(*ha.pta);
        ha.deadlocks = analysis::findDeadlocks(*ha.pta, *locks, reaches,
                                               &ha.deadlockStats);
    }
    locks.reset();
    if (options.enablement && anySurviving(ha.pairs)) {
        auto s = span("analysis.enablement");
        const sierra::framework::KnownApis apis(app.module());
        analysis::EnablementAnalysis en(*ha.pta, apis);
        ha.enablementRefuted =
            race::refuteWithEnablement(en, reaches, ha.pairs);
        ha.enablementStats = en.stats();
    }
    if (options.ifds) {
        auto s = span("analysis.ifds");
        ha.inter = std::make_unique<analysis::InterConstants>(*ha.pta);
        ha.useAfterDestroy =
            analysis::findUseAfterDestroy(*ha.pta, *ha.inter, reaches);
    }
    if (options.runRefutation) {
        auto s = span("symbolic.refute");
        sierra::symbolic::RefuterOptions ro = options.refuter;
        ro.exec.inter = ha.inter.get();
        ha.refutation = sierra::symbolic::refuteRaces(*ha.pta, ha.accesses,
                                                      ha.pairs, ro);
    }
    if (options.nullflow && anySurviving(ha.pairs)) {
        auto s = span("analysis.nullflow");
        const sierra::framework::KnownApis apis(app.module());
        analysis::NullFlowAnalysis nf(*ha.pta, ha.inter.get(), apis,
                                      reaches);
        ha.nullflowClassified =
            race::classifyWithNullFlow(nf, ha.accesses, ha.pairs);
        ha.nullflowStats = nf.stats();
    }
    if (auto s = span("race.prioritize"))
        race::prioritize(*ha.pta, ha.accesses, ha.pairs);
    return ha;
}

} // namespace

std::vector<sierra::HarnessAnalysis>
replicateAnalyze(sierra::framework::App &app,
                 const std::vector<sierra::harness::HarnessPlan> &plans,
                 const sierra::SierraOptions &options, SpanRecorder &rec,
                 int parent, int64_t request, PoolTiming &pool)
{
    const int num_plans = static_cast<int>(plans.size());
    const int jobs = sierra::util::resolveJobs(options.jobs);
    const int plan_jobs = std::min(jobs, std::max(num_plans, 1));
    sierra::SierraOptions task_options = options;
    if (task_options.refuter.jobs <= 0)
        task_options.refuter.jobs = std::max(1, jobs / plan_jobs);

    std::shared_ptr<sierra::analysis::ClassHierarchy> cha;
    std::unique_ptr<sierra::analysis::FieldEffects> effects;
    if (num_plans > 0) {
        {
            ScopedSpan s(&rec, "analysis.cha", parent, request);
            cha = std::make_shared<sierra::analysis::ClassHierarchy>(
                app.module());
            task_options.pta.sharedCha = cha;
        }
        if (task_options.effectPrefilter && !task_options.racy.effects) {
            ScopedSpan s(&rec, "analysis.effects", parent, request);
            effects = std::make_unique<sierra::analysis::FieldEffects>(
                app.module(), *cha);
            task_options.racy.effects = effects.get();
        }
    }

    std::vector<sierra::HarnessAnalysis> out(
        static_cast<size_t>(num_plans));
    std::vector<double> task_ms(static_cast<size_t>(num_plans), 0.0);
    pool = PoolTiming{};
    pool.workers = std::min(plan_jobs, num_plans);
    std::mutex wait_mutex;
    {
        ScopedSpan pf(&rec, "util.parallel_for", parent, request);
        const Clock::time_point call = Clock::now();
        sierra::util::parallelFor(pool.workers, num_plans, [&](int i) {
            const size_t k = static_cast<size_t>(i);
            const Clock::time_point start = Clock::now();
            {
                std::lock_guard<std::mutex> lock(wait_mutex);
                pool.waitMs += msBetween(call, start);
            }
            ScopedSpan task(&rec, "replica.task", pf.id(), request);
            out[k] = replicateHarness(app, plans[k], task_options, rec,
                                      task.id(), request);
            task_ms[k] = msBetween(start, Clock::now());
        });
        pool.callMs = msBetween(call, Clock::now());
    }
    for (double ms : task_ms) {
        pool.taskMsSum += ms;
        pool.longestTaskMs = std::max(pool.longestTaskMs, ms);
    }
    return out;
}

std::string
compareWithReport(const std::vector<sierra::HarnessAnalysis> &replica,
                  const sierra::AppReport &report)
{
    if (replica.size() != report.perHarness.size())
        return "harness count differs";
    for (size_t h = 0; h < replica.size(); ++h) {
        const sierra::HarnessAnalysis &a = replica[h];
        const sierra::HarnessAnalysis &b = report.perHarness[h];
        if (sierra::serializeArtifact(sierra::makeArtifact(a)) !=
            sierra::serializeArtifact(sierra::makeArtifact(b)))
            return "artifact of " + a.activity + " differs";
        if (a.pairs.size() != b.pairs.size())
            return "pair count of " + a.activity + " differs";
        for (size_t p = 0; p < a.pairs.size(); ++p) {
            if (a.pairs[p].refutedBy != b.pairs[p].refutedBy ||
                a.pairs[p].refuted != b.pairs[p].refuted ||
                a.pairs[p].severity != b.pairs[p].severity)
                return "pair " + std::to_string(p) + " of " + a.activity +
                       " differs";
        }
    }
    return "";
}

} // namespace sierrabench

/**
 * @file
 * The SIERRA pipeline (paper Fig. 3): harness generation -> call graph +
 * pointer analysis with action-sensitive contexts -> Static Happens-
 * Before Graph -> racy pairs -> symbolic refutation -> prioritized race
 * reports. This is the library's main public entry point.
 *
 * Harnesses are analyzed in parallel (one task per harness plan, see
 * the threading-model section of docs/INTERNALS.md): every task
 * produces a complete HarnessAnalysis from read-only shared state, and
 * the tasks are merged in plan order afterwards, so the report is
 * byte-identical at every jobs count.
 */

#ifndef SIERRA_SIERRA_DETECTOR_HH
#define SIERRA_SIERRA_DETECTOR_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "analysis/deadlock.hh"
#include "analysis/effects.hh"
#include "analysis/enablement.hh"
#include "analysis/ifds.hh"
#include "analysis/points_to.hh"
#include "artifact.hh"
#include "framework/app.hh"
#include "framework/icc.hh"
#include "harness/harness.hh"
#include "hb/rules.hh"
#include "race/racy.hh"
#include "stage.hh"
#include "symbolic/refuter.hh"
#include "util/metrics.hh"

namespace sierra {

/** All pipeline options in one place. */
struct SierraOptions {
    analysis::PointsToOptions pta;
    hb::HbOptions hb;
    race::RacyOptions racy;
    symbolic::RefuterOptions refuter;
    /*
     * Stage toggles, all on by default. Each is the `toggle` of a row
     * of the stage table (sierra/stage.hh), which also names its
     * `--no-X` flag; docs/INTERNALS.md describes the stages. Dataflow
     * and escape only save time (the report is unchanged); lockset,
     * enablement and ifds refute more false positives, never a true
     * race; deadlock and nullflow are purely additive (with nullflow
     * off every verdict is Unknown and the report is byte-identical to
     * the stage-less text).
     */
    bool runRefutation{true}; //!< symbolic refutation
    //! dataflow: field-effect summaries (analysis::FieldEffects), built
    //! once per analyze(), as the racy-pair conflict prefilter; the
    //! refuter's constant facts are `refuter.exec.useConstFacts`
    bool effectPrefilter{true};
    //! escape: drop accesses whose every base is thread-local
    bool escapeFilter{true};
    //! lockset: refute pairs guarded by a common must-held monitor
    bool locksetRefutation{true};
    //! enablement: refute pairs whose callback is must-disabled
    bool enablement{true};
    //! ifds: interprocedural constants for the refuter, plus the
    //! use-after-destroy client
    bool ifds{true};
    //! deadlock: cyclic lock acquisitions (`deadlocks:` section)
    bool deadlock{true};
    //! nullflow: HARMFUL / GUARDED / UNKNOWN severity of survivors
    bool nullflow{true};
    /**
     * ICC modeling (framework::IccModel): resolve explicit Intent
     * targets at startActivity/startService/sendBroadcast/PendingIntent
     * sites and extend each activity harness with the lifecycles of the
     * activities it launches, so cross-component races are reachable.
     * Consumed at harness-generation time, i.e. by the detector
     * *constructor* — pass the options to the two-argument constructor
     * to ablate it (`--no-icc`); flipping it at analyze() time has no
     * effect.
     */
    bool icc{true};
    /**
     * Worker threads for the whole pipeline: harness plans run as
     * parallel tasks, and leftover parallelism (jobs / plans) is
     * handed to each task's sharded refutation. 0 = the SIERRA_JOBS
     * environment variable, else hardware_concurrency; 1 = fully
     * serial. The report is identical at every value.
     */
    int jobs{0};
    /**
     * Optional metrics registry, filled during the deterministic merge
     * (counter catalog in docs/OBSERVABILITY.md). Not owned; null
     * disables the bookkeeping. Counters mirror report fields exactly
     * (e.g. `race.lockset_refuted` == AppReport::locksetRefuted) and
     * are identical at every jobs count.
     */
    util::metrics::Registry *metrics{nullptr};
};

/** The analysis artifacts of one harness (one activity). */
struct HarnessAnalysis {
    std::string activity;
    std::unique_ptr<analysis::PointsToResult> pta;
    std::unique_ptr<hb::Shbg> shbg;
    //! interprocedural constant facts (null when the stage is off)
    std::unique_ptr<analysis::InterConstants> inter;
    //! use-after-destroy findings (empty when the stage is off)
    std::vector<analysis::UseAfterDestroyFinding> useAfterDestroy;
    //! cyclic lock-acquisition findings (empty when the stage is off)
    std::vector<analysis::DeadlockFinding> deadlocks;
    analysis::DeadlockStats deadlockStats; //!< deadlock-stage work
    std::vector<race::Access> accesses;
    std::vector<race::RacyPair> pairs; //!< prioritized, refuted marked
    symbolic::RefutationStats refutation;
    race::RacyStats racyStats; //!< pair-loop work counters
    int accessesTotal{0};     //!< extracted accesses before filtering
    int accessesDropped{0};   //!< thread-local accesses escape removed
    int locksetRefuted{0};    //!< pairs refuted by the lock-set stage
    int enablementRefuted{0}; //!< pairs refuted by the enablement stage
    //! enablement-stage work counters (all zero when the stage is off)
    analysis::EnablementStats enablementStats;
    //! surviving pairs classified non-Unknown by the nullflow stage
    int nullflowClassified{0};
    //! nullflow-stage work counters (all zero when the stage is off)
    analysis::NullFlowStats nullflowStats;

    int numActions() const { return pta->numRealActions(); }
    int64_t hbEdges() const { return shbg->numClosurePairs(); }
    int racyPairCount() const { return static_cast<int>(pairs.size()); }
    int survivingRaceCount() const;
};

/** One deduplicated, app-level race report row. */
struct AppRace {
    std::string description;
    int priority{0};
    bool refuted{false};
    std::string fieldKey; //!< canonical location key (for scoring)
    //! which activities' harnesses exposed it
    std::vector<std::string> activities;
    //! null-value-flow severity (merged across harnesses: the
    //! highest-rank verdict of any surviving instance wins)
    analysis::NullVerdict severity{analysis::NullVerdict::Unknown};
    //! provenance chain of the winning verdict (empty for Unknown)
    std::string severityChain;
};

/** The aggregated result for one app (paper Table 3/4 rows). */
struct AppReport {
    std::string app;
    int harnesses{0};
    int actions{0};       //!< summed over harnesses (paper does too)
    int64_t hbEdges{0};   //!< summed closure pairs
    double orderedPct{0}; //!< aggregated ordered-pair percentage
    int racyPairs{0};     //!< deduplicated across harnesses
    int afterRefutation{0};
    int accessesDropped{0}; //!< summed thread-local accesses removed
    int locksetRefuted{0};  //!< summed pairs refuted by lock sets
    int enablementRefuted{0}; //!< summed pairs refuted by enablement
    int harmfulRaces{0}; //!< surviving races classified HARMFUL
    int guardedRaces{0}; //!< surviving races classified GUARDED
    //! which stages were on for this run, by StageId
    std::array<bool, kNumStages> stagesOn{};
    StageTimes times;
    std::vector<AppRace> races; //!< deduplicated, priority-ranked
    //! use-after-destroy findings, deduplicated across harnesses
    std::vector<analysis::UseAfterDestroyFinding> useAfterDestroy;
    //! deadlock findings, deduplicated across harnesses
    std::vector<analysis::DeadlockFinding> deadlocks;
    std::vector<HarnessAnalysis> perHarness;

    /** Whether the text report carries the stage's tokens: always,
     *  unless the stage gates its text (Stage::gatesText) and was off,
     *  so --no-X output is byte-identical to the stage-less text. */
    bool
    showsStage(StageId id) const
    {
        return !stageOf(id).gatesText || stagesOn[stageIndex(id)];
    }
};

/**
 * Stage-level reuse hooks for incremental re-analysis (`sierra serve`).
 *
 * When analyze() is given a HarnessReuse, it consults `tryLoad` for
 * each harness plan *before* the parallel fan-out; a hit skips the
 * whole pipeline for that plan and merges the loaded artifact instead.
 * Misses run normally and their freshly made artifact is offered to
 * `onComputed` for persistence. The merge consumes only artifact
 * fields either way, so a warm report is byte-identical to the cold
 * one by construction (incremental_test pins this; the caching rules
 * live in docs/CACHING.md).
 */
struct HarnessReuse {
    /** Return true and fill `out` to reuse a stored artifact for this
     *  plan. Called serially in plan order. */
    std::function<bool(const harness::HarnessPlan &, HarnessArtifact &)>
        tryLoad;
    /** Offered every freshly computed (plan, analysis, artifact)
     *  triple, serially in plan order, for persistence. */
    std::function<void(const harness::HarnessPlan &,
                       const HarnessAnalysis &, const HarnessArtifact &)>
        onComputed;
};

/**
 * The detector. Construction generates the per-activity harnesses into
 * the app's module (once); analyze() may be called repeatedly with
 * different options (e.g. to ablate the context policy). Options that
 * act at harness-generation time (SierraOptions::icc) are honored only
 * by the two-argument constructor.
 */
class SierraDetector
{
  public:
    explicit SierraDetector(framework::App &app);
    SierraDetector(framework::App &app, const SierraOptions &options);

    /** Run the full pipeline over every activity harness. */
    AppReport analyze(const SierraOptions &options = {});

    /** As above, with per-harness reuse hooks; `reuse` may be null
     *  (then identical to the plain overload). */
    AppReport analyze(const SierraOptions &options,
                      const HarnessReuse *reuse);

    /** Analyze a single activity's harness. */
    HarnessAnalysis analyzeActivity(const std::string &activity,
                                    const SierraOptions &options = {});

    const std::vector<harness::HarnessPlan> &plans() const
    {
        return _plans;
    }

    /** ICC scan counters (all zero when icc was off at construction). */
    const framework::IccStats &iccStats() const { return _iccStats; }

  private:
    const harness::HarnessPlan &planFor(const std::string &activity);

    /**
     * The per-harness stages for one plan — the single body both
     * analyzeActivity and (possibly many threads of) analyze run,
     * after the app-level prelude has filled the shared facts into
     * `options`. Reads only shared-immutable state (_app, the plan,
     * the shared facts); everything it produces is owned by the
     * returned HarnessAnalysis. Stage times accumulate into `times`.
     */
    HarnessAnalysis runHarness(const harness::HarnessPlan &plan,
                               const SierraOptions &options,
                               StageTimes &times);

    framework::App &_app;
    std::vector<harness::HarnessPlan> _plans;
    framework::IccStats _iccStats;
};

/**
 * Render an app report as human-readable text (ranked race list).
 * `with_times` includes the timing line; pass false to get output that
 * is reproducible across runs and jobs counts (the determinism tests
 * compare this form).
 */
std::string formatReport(const AppReport &report, int max_races = 50,
                         bool with_times = true);

} // namespace sierra

#endif // SIERRA_SIERRA_DETECTOR_HH

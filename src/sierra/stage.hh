/**
 * @file
 * The stage table: one row per analysis stage, in run order. Trace
 * span and histogram names, the `timesMs` key and `time:` token, the
 * SierraOptions toggle, the CLI `--no-X` flag, text gating and the
 * cache fingerprint's toggle bits are all read from it, so each
 * stage's names live in exactly one row (docs/INTERNALS.md, "The
 * stage table").
 */

#ifndef SIERRA_SIERRA_STAGE_HH
#define SIERRA_SIERRA_STAGE_HH

#include <array>
#include <cstddef>

namespace sierra {

struct SierraOptions;

/** The stages in pipeline order; indexes kStages and StageTimes. */
enum class StageId {
    CgPa, Hbg, Dataflow, Escape, Racy, Lockset,
    Deadlock, Enablement, Ifds, Refutation, Nullflow,
};

inline constexpr size_t kNumStages = 11;

/** Position of a stage in kStages and StageTimes. */
constexpr size_t
stageIndex(StageId id)
{
    return static_cast<size_t>(id);
}

/** One row of the stage table. */
struct Stage {
    StageId id;
    const char *name;    //!< `stage.<name>` span, `.seconds` histogram
    const char *jsonKey; //!< key in the JSON `timesMs` object
    const char *textKey; //!< token on the text `time:` line
    bool SierraOptions::*toggle; //!< null: the stage always runs
    const char *flag; //!< CLI switch turning it off; null: none
    void (*alsoDisable)(SierraOptions &); //!< more options `flag` clears
    //! its text-report tokens (time token included) drop out when it is
    //! off, so ablated text is byte-identical to the stage-less report
    bool gatesText;
    bool appLevel; //!< runs once per analyze(), not once per harness
};

/** Every stage, indexed by StageId. */
extern const std::array<Stage, kNumStages> kStages;

inline const Stage &
stageOf(StageId id)
{
    return kStages[stageIndex(id)];
}

/** Whether `options` runs the stage (toggle-less stages always do). */
bool stageOn(const Stage &stage, const SierraOptions &options);

/** Turn the stage off the way its `--no-X` flag does. */
void disableStage(const Stage &stage, SierraOptions &options);

/**
 * Per-stage timers (paper Table 4 columns). Each slot sums every
 * task's own cpu-seconds in that stage, approximating the serial cost
 * at any jobs count; `total` is the run's elapsed wall time, which is
 * what shrinks as jobs grow. A stage that fans out to worker threads
 * (refutation) is charged max(its wall time, the workers' summed
 * thread-CPU), so worker CPU is not hidden behind the task's wall.
 */
struct StageTimes {
    std::array<double, kNumStages> stage{}; //!< cpu-s, by StageId
    //! sum of all per-task stage times; equals the sum of the stage
    //! slots (up to fp rounding) by construction, regardless of task
    //! completion order -- the merge runs serially in plan order
    double totalCpu{0};
    double total{0}; //!< elapsed wall-clock of the whole run

    double &operator[](StageId id) { return stage[stageIndex(id)]; }
    double operator[](StageId id) const { return stage[stageIndex(id)]; }

    /** Fold another task's stage times in (associative, commutative
     *  component-wise sums; `total` is deliberately excluded -- wall
     *  time is a property of the whole run, not of one task). */
    void
    add(const StageTimes &o)
    {
        for (size_t i = 0; i < kNumStages; ++i)
            stage[i] += o.stage[i];
        totalCpu += o.totalCpu;
    }
};

} // namespace sierra

#endif // SIERRA_SIERRA_STAGE_HH

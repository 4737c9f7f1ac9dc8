#include "stage.hh"

#include "detector.hh"

namespace sierra {

// Columns: id, name, jsonKey, textKey;
// toggle, flag, alsoDisable, gatesText, appLevel.
constexpr std::array<Stage, kNumStages> kStages = {{
    {StageId::CgPa, "cg_pa", "cgPa", "cg+pa",
     nullptr, nullptr, nullptr, false, false},
    {StageId::Hbg, "hbg", "hbg", "hbg",
     nullptr, nullptr, nullptr, false, false},
    {StageId::Dataflow, "dataflow", "dataflow", "dataflow",
     &SierraOptions::effectPrefilter, "--no-dataflow",
     // also drops the refuter's constant facts, the dataflow
     // framework's other client
     [](SierraOptions &o) { o.refuter.exec.useConstFacts = false; },
     false, true},
    {StageId::Escape, "escape", "escape", "escape",
     &SierraOptions::escapeFilter, "--no-escape", nullptr, false, false},
    {StageId::Racy, "racy", "racy", "racy",
     nullptr, nullptr, nullptr, false, false},
    {StageId::Lockset, "lockset", "lockset", "lockset",
     &SierraOptions::locksetRefutation, "--no-lockset", nullptr, false, false},
    {StageId::Deadlock, "deadlock", "deadlock", "deadlock",
     &SierraOptions::deadlock, "--no-deadlock", nullptr, false, false},
    {StageId::Enablement, "enablement", "enablement", "enablement",
     &SierraOptions::enablement, "--no-enablement", nullptr, true, false},
    {StageId::Ifds, "ifds", "ifds", "ifds",
     &SierraOptions::ifds, "--no-ifds", nullptr, false, false},
    {StageId::Refutation, "refutation", "refutation", "refutation",
     &SierraOptions::runRefutation, "--no-refute", nullptr, false, false},
    {StageId::Nullflow, "nullflow", "nullflow", "nullflow",
     &SierraOptions::nullflow, "--no-nullflow", nullptr, true, false},
}};

static_assert(
    [] {
        for (size_t i = 0; i < kNumStages; ++i) {
            if (stageIndex(kStages[i].id) != i)
                return false;
        }
        return true;
    }(),
    "kStages is indexed by StageId");

bool
stageOn(const Stage &stage, const SierraOptions &options)
{
    return !stage.toggle || options.*stage.toggle;
}

void
disableStage(const Stage &stage, SierraOptions &options)
{
    if (stage.toggle)
        options.*stage.toggle = false;
    if (stage.alsoDisable)
        stage.alsoDisable(options);
}

} // namespace sierra

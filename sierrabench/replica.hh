/**
 * @file
 * The traced replica of SierraDetector::analyze(): it re-drives every
 * harness plan through the same public layer calls the detector makes
 * (app-level class hierarchy and field effects, then per plan
 * points-to, SHBG, access extraction, escape, racy pairs, lock sets,
 * deadlocks, enablement, IFDS, refutation, null-value flow and
 * prioritization, fanned out with util::parallelFor), with one span
 * around each call. Its per-harness pairs must equal analyze()'s, or
 * the layer numbers do not describe the program.
 */

#ifndef SIERRABENCH_REPLICA_HH
#define SIERRABENCH_REPLICA_HH

#include <string>
#include <vector>

#include "sierra/detector.hh"
#include "spans.hh"

namespace sierrabench {

/** Timing of the replica's parallelFor call over harness tasks. */
struct PoolTiming {
    double callMs{0};        //!< parallelFor wall
    double waitMs{0};        //!< summed task queue delay
    double longestTaskMs{0}; //!< the task that set the call's wall
    double taskMsSum{0};     //!< summed task durations
    int workers{0};          //!< threads the call used
};

/**
 * Run the replica over `plans` (the detector's, generated into `app`)
 * under `options`, recording spans below `parent`.
 */
std::vector<sierra::HarnessAnalysis>
replicateAnalyze(sierra::framework::App &app,
                 const std::vector<sierra::harness::HarnessPlan> &plans,
                 const sierra::SierraOptions &options, SpanRecorder &rec,
                 int parent, int64_t request, PoolTiming &pool);

/**
 * Compare the replica's harness analyses with analyze()'s: per
 * harness, the serialized artifact (race keys, refuted flags,
 * severities, findings) and every pair's RefutedBy. Returns an empty
 * string when they match, else what differs.
 */
std::string compareWithReport(
    const std::vector<sierra::HarnessAnalysis> &replica,
    const sierra::AppReport &report);

} // namespace sierrabench

#endif // SIERRABENCH_REPLICA_HH

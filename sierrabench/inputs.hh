/**
 * @file
 * Seeded workload inputs. Every input is an AIR bundle (the text
 * `sierra analyze` reads) produced by the corpus generator; the
 * benchmark keeps the generator's ground truth for scoring, and the
 * program only ever sees the bundle bytes.
 */

#ifndef SIERRABENCH_INPUTS_HH
#define SIERRABENCH_INPUTS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "corpus/ground_truth.hh"

namespace sierrabench {

struct AppInput {
    std::string bundle;                // what the program receives
    sierra::corpus::GroundTruth truth; // kept by the benchmark
};

/** Shape of the apps a workload generates. */
struct AppShape {
    int count{0};
    int minActivities{1};
    int maxActivities{1};
    int minPatterns{1}; //!< per activity
    int maxPatterns{1};
    /**
     * 0: every app's recipe (activity count, pattern draws) comes from
     * the run's seed. Otherwise recipes come from this fixed seed and
     * the run's seed only names the apps and orders them, so a workload
     * whose cost per app is heavy-tailed keeps the same cost mix on
     * every seed while its bundle bytes still differ.
     */
    uint64_t recipeSeed{0};
};

/** `shape.count` apps named `<prefix>-<seed>-<i>`. */
std::vector<AppInput> makeApps(const std::string &prefix, uint64_t seed,
                               const AppShape &shape);

/**
 * Up to `count` one-method body edits of `bundle`: each variant adds
 * one to the integer operand of a different `const` instruction, so
 * it differs from the original in exactly one method body. Returns
 * fewer variants when the bundle has fewer integer constants.
 */
std::vector<std::string> makeEdits(const std::string &bundle,
                                   uint64_t seed, int count);

/** Digest of every bundle's bytes, in order. */
uint64_t digestBundles(const std::vector<std::string> &bundles);

} // namespace sierrabench

#endif // SIERRABENCH_INPUTS_HH

/**
 * @file
 * The per-module table of intraprocedural method facts every stage
 * reads: each body method's CFG, dominator tree and constant facts.
 *
 * Method bodies do not change after parse (and harness generation), so
 * these facts are pure functions of the module. The detector builds
 * one table per analyze() beside the class hierarchy and shares it
 * with every harness task through PointsToOptions::sharedFacts, the way
 * WALA lets every client read one IR per method.
 */

#ifndef SIERRA_ANALYSIS_METHOD_FACTS_HH
#define SIERRA_ANALYSIS_METHOD_FACTS_HH

#include <memory>
#include <mutex>
#include <unordered_map>

#include "air/module.hh"
#include "cfg.hh"
#include "dataflow.hh"
#include "dominators.hh"

namespace sierra::analysis {

/**
 * One entry per method with a body. The CFG is built in the
 * constructor; the dominator tree and the (unseeded) constant facts
 * are built on first use, once, under a per-entry `std::once_flag`.
 * The map itself is never written after construction, so lookups take
 * no lock and every accessor is safe to call from any thread. Each
 * accessor returns the same object on every call.
 */
class MethodFacts
{
  public:
    explicit MethodFacts(const air::Module &module);

    /** `m` must have a body and belong to the module. */
    const Cfg &cfg(const air::Method &m) const;
    const DominatorTree &dominators(const air::Method &m) const;
    const MethodConstants &constants(const air::Method &m) const;

    /** Number of methods with an entry (= body methods). */
    int size() const { return static_cast<int>(_entries.size()); }

  private:
    struct Entry {
        explicit Entry(const air::Method &m) : cfg(m) {}

        Cfg cfg;
        mutable std::once_flag domOnce;
        mutable std::unique_ptr<DominatorTree> dom;
        mutable std::once_flag constOnce;
        mutable std::unique_ptr<MethodConstants> constants;
    };

    const Entry &entryOf(const air::Method &m) const;

    std::unordered_map<const air::Method *, Entry> _entries;
};

} // namespace sierra::analysis

#endif // SIERRA_ANALYSIS_METHOD_FACTS_HH

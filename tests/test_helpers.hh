/** @file Shared helpers for building tiny apps inside tests. */

#ifndef SIERRA_TESTS_TEST_HELPERS_HH
#define SIERRA_TESTS_TEST_HELPERS_HH

#include <filesystem>
#include <memory>
#include <string>
#include <unistd.h>

#include "corpus/app_factory.hh"
#include "harness/harness.hh"
#include "sierra/detector.hh"

namespace sierra::test {

/** A built app together with its harness plans and detector. */
struct Pipeline {
    corpus::BuiltApp built;
    std::unique_ptr<SierraDetector> detector;

    framework::App &app() { return *built.app; }
};

/** Build an app from a factory-filling callback and wrap a detector. */
template <typename Fill>
Pipeline
makePipeline(const std::string &name, Fill fill)
{
    corpus::AppFactory factory(name);
    fill(factory);
    Pipeline p{factory.finish(), nullptr};
    p.detector = std::make_unique<SierraDetector>(*p.built.app);
    return p;
}

/** A fresh directory path under the system temp dir, removed (with
 *  everything in it) on destruction. Not created up front. */
struct TempDir {
    std::string path;
    TempDir()
    {
        static int counter = 0;
        path = (std::filesystem::temp_directory_path() /
                ("sierra_test_dir_" + std::to_string(::getpid()) + "_" +
                 std::to_string(counter++)))
                   .string();
    }
    ~TempDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }
    TempDir(const TempDir &) = delete;
    TempDir &operator=(const TempDir &) = delete;
};

/** Find an action by label substring; -1 if absent. */
inline int
findAction(const analysis::PointsToResult &r, const std::string &needle)
{
    for (const auto &a : r.actions.all()) {
        if (a.label.find(needle) != std::string::npos)
            return a.id;
    }
    return -1;
}

/** Count actions of one kind. */
inline int
countActions(const analysis::PointsToResult &r, analysis::ActionKind k)
{
    int n = 0;
    for (const auto &a : r.actions.all()) {
        if (a.kind == k)
            ++n;
    }
    return n;
}

/** True if some surviving race in the report is on the given key. */
inline bool
reportsKey(const AppReport &report, const std::string &key)
{
    for (const auto &race : report.races) {
        if (!race.refuted && race.fieldKey == key)
            return true;
    }
    return false;
}

} // namespace sierra::test

#endif // SIERRA_TESTS_TEST_HELPERS_HH

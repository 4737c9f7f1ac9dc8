#include "inputs.hh"

#include <algorithm>
#include <random>
#include <regex>
#include <sstream>

#include "corpus/generator.hh"
#include "framework/app_text.hh"
#include "stats.hh"

namespace sierrabench {

std::vector<AppInput>
makeApps(const std::string &prefix, uint64_t seed, const AppShape &shape)
{
    std::mt19937_64 rng(shape.recipeSeed ? shape.recipeSeed : seed);
    std::vector<AppInput> apps;
    apps.reserve(static_cast<size_t>(shape.count));
    for (int i = 0; i < shape.count; ++i) {
        sierra::corpus::SyntheticSpec spec;
        spec.seed = static_cast<uint32_t>(rng());
        spec.activities =
            shape.minActivities +
            static_cast<int>(rng() % static_cast<uint64_t>(
                                         shape.maxActivities -
                                         shape.minActivities + 1));
        spec.minPatternsPerActivity = shape.minPatterns;
        spec.maxPatternsPerActivity = shape.maxPatterns;
        sierra::corpus::BuiltApp built = sierra::corpus::generateSyntheticApp(
            prefix + "-" + std::to_string(seed) + "-" + std::to_string(i),
            spec);
        apps.push_back({sierra::framework::printAppText(*built.app),
                        std::move(built.truth)});
    }
    if (shape.recipeSeed) {
        std::mt19937_64 order(seed);
        std::shuffle(apps.begin(), apps.end(), order);
    }
    return apps;
}

std::vector<std::string>
makeEdits(const std::string &bundle, uint64_t seed, int count)
{
    std::vector<std::string> lines;
    {
        std::istringstream in(bundle);
        for (std::string line; std::getline(in, line);)
            lines.push_back(line);
    }
    static const std::regex kIntConst(R"(^(\s*@\d+: r\d+ = const )(-?\d+)\s*$)");
    std::vector<size_t> candidates;
    for (size_t i = 0; i < lines.size(); ++i) {
        if (std::regex_match(lines[i], kIntConst))
            candidates.push_back(i);
    }
    std::mt19937_64 rng(seed);
    std::shuffle(candidates.begin(), candidates.end(), rng);
    if (candidates.size() > static_cast<size_t>(count))
        candidates.resize(static_cast<size_t>(count));

    std::vector<std::string> variants;
    for (size_t line_no : candidates) {
        std::smatch m;
        std::regex_match(lines[line_no], m, kIntConst);
        const long long value = std::stoll(m[2].str());
        std::string out;
        for (size_t i = 0; i < lines.size(); ++i) {
            out += i == line_no ? m[1].str() + std::to_string(value + 1)
                                : lines[i];
            out += '\n';
        }
        variants.push_back(std::move(out));
    }
    return variants;
}

uint64_t
digestBundles(const std::vector<std::string> &bundles)
{
    uint64_t h = fnv1a("sierrabench-inputs");
    for (const std::string &b : bundles)
        h = fnv1a(hex64(fnv1a(b)), h);
    return h;
}

} // namespace sierrabench

/**
 * @file
 * Stage-time rendering completeness (report_times_test).
 *
 * The text `time:` line and the JSON `timesMs` object are both
 * generated from the stage table (sierra/stage.hh), and StageTimes
 * holds one slot per table row. These tests close the remaining gap:
 * every stage actually reaches both renderings, so a stage added to
 * the table cannot silently miss the report or the machine-readable
 * output.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cli.hh"
#include "corpus/named_apps.hh"
#include "sierra/detector.hh"
#include "test_helpers.hh"

namespace sierra {
namespace {

using test::TempFile;

AppReport
analyzeNamed(const std::string &name, const SierraOptions &options)
{
    corpus::BuiltApp built = corpus::buildNamedApp(name);
    SierraDetector detector(*built.app);
    return detector.analyze(options);
}

/** The `time: ...` line of a text report ("" if absent). */
std::string
timeLine(const std::string &text)
{
    size_t begin = text.find("time: ");
    if (begin == std::string::npos)
        return "";
    size_t end = text.find('\n', begin);
    return text.substr(begin, end - begin);
}

TEST(ReportTimes, EntriesCoverEveryStageTimesField)
{
    // One StageTimes slot per table row, each row at its StageId.
    static_assert(std::tuple_size_v<decltype(StageTimes::stage)> ==
                  kNumStages);
    ASSERT_EQ(kStages.size(), kNumStages);

    std::set<std::string> names, json_names, text_names, flags;
    for (size_t i = 0; i < kStages.size(); ++i) {
        const Stage &s = kStages[i];
        EXPECT_EQ(static_cast<size_t>(s.id), i) << s.name;
        EXPECT_TRUE(names.insert(s.name).second)
            << "duplicate name " << s.name;
        EXPECT_TRUE(json_names.insert(s.jsonKey).second)
            << "duplicate jsonKey " << s.jsonKey;
        EXPECT_TRUE(text_names.insert(s.textKey).second)
            << "duplicate textKey " << s.textKey;
        if (s.flag) {
            EXPECT_TRUE(flags.insert(s.flag).second)
                << "duplicate flag " << s.flag;
            EXPECT_NE(s.toggle, nullptr) << s.flag << " toggles nothing";
        }
    }
    // The two non-stage keys never collide with a stage's.
    for (const char *key : {"totalCpu", "total"})
        EXPECT_FALSE(json_names.count(key)) << key;
    for (const char *token : {"cpu", "total"})
        EXPECT_FALSE(text_names.count(token)) << token;
}

TEST(ReportTimes, TextTimeLineRendersEveryInTextEntry)
{
    AppReport report = analyzeNamed("NotePad", {});
    std::string line = timeLine(formatReport(report, 50, true));
    ASSERT_FALSE(line.empty());

    for (const Stage &s : kStages) {
        ASSERT_TRUE(report.showsStage(s.id)) << s.name;
        EXPECT_NE(line.find(std::string(s.textKey) + " "),
                  std::string::npos)
            << s.textKey << " missing from the time line:\n"
            << line;
    }
    // totalCpu renders inside total's parenthetical: "(cpu Xs)".
    EXPECT_NE(line.find("total "), std::string::npos) << line;
    EXPECT_NE(line.find("(cpu "), std::string::npos) << line;

    // And the no-times rendering has no time line at all.
    EXPECT_EQ(timeLine(formatReport(report, 50, false)), "");
}

TEST(ReportTimes, GatedStagesDropFromTextButNeverFromEntries)
{
    // Turn every stage off: exactly the gated ones leave the line.
    SierraOptions off;
    for (const Stage &s : kStages)
        disableStage(s, off);
    AppReport report = analyzeNamed("NotePad", off);

    std::string line = timeLine(formatReport(report, 50, true));
    ASSERT_FALSE(line.empty());
    for (const Stage &s : kStages) {
        EXPECT_EQ(report.showsStage(s.id), !s.gatesText) << s.name;
        EXPECT_EQ(line.find(std::string(s.textKey) + " ") ==
                      std::string::npos,
                  s.gatesText)
            << s.textKey << ":\n"
            << line;
    }
    EXPECT_EQ(line.find("nullflow"), std::string::npos) << line;
    EXPECT_EQ(line.find("enablement"), std::string::npos) << line;
}

/** The `"timesMs": {...}` object of a JSON report ("" if absent). */
std::string
timesMsObject(const std::string &json)
{
    size_t begin = json.find("\"timesMs\": {");
    if (begin == std::string::npos)
        return "";
    size_t end = json.find('}', begin);
    return json.substr(begin, end - begin + 1);
}

TEST(ReportTimes, JsonTimesMsHasOneKeyPerStageTimesField)
{
    TempFile file(".air");
    std::ostringstream out, err;
    ASSERT_EQ(cli::runCli({"dump", "NotePad", "-o", file.path()}, out,
                          err),
              0)
        << err.str();

    // Unlike the text line, the JSON object keeps every key even for
    // gated-off stages (their value is just 0), so consumers never
    // need existence checks.
    for (bool ablated : {false, true}) {
        std::vector<std::string> args = {"analyze", file.path(),
                                         "--json"};
        for (const Stage &s : kStages) {
            if (ablated && s.gatesText)
                args.push_back(s.flag);
        }
        std::ostringstream jout, jerr;
        ASSERT_EQ(cli::runCli(args, jout, jerr), 0) << jerr.str();
        std::string times = timesMsObject(jout.str());
        ASSERT_FALSE(times.empty()) << jout.str().substr(0, 400);

        std::vector<std::string> keys = {"totalCpu", "total"};
        for (const Stage &s : kStages)
            keys.push_back(s.jsonKey);
        for (const std::string &key : keys) {
            EXPECT_NE(times.find("\"" + key + "\": "), std::string::npos)
                << key << " missing from timesMs: " << times;
        }
        // No extra keys either: key count == quote-pair count.
        size_t quotes = 0;
        for (char c : times)
            quotes += (c == '"');
        // "timesMs" itself contributes one quoted token.
        EXPECT_EQ(quotes, 2 * (keys.size() + 1)) << times;
    }
}

} // namespace
} // namespace sierra

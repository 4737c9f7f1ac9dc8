#include "cli.hh"

#include <fstream>
#include <iostream>
#include <set>
#include <sstream>

#include "air/printer.hh"
#include "air/verifier.hh"
#include "analysis/lint.hh"
#include "corpus/generator.hh"
#include "corpus/named_apps.hh"
#include "corpus/patterns.hh"
#include "dynamic/event_racer.hh"
#include "dynamic/race_verifier.hh"
#include "framework/app_text.hh"
#include "serve/serve.hh"
#include "sierra/detector.hh"
#include "util/json.hh"
#include "util/metrics.hh"
#include "util/trace.hh"

namespace sierra::cli {

namespace {

using util::Json;

const char *kUsage = R"(usage: sierra <command> [options]

commands:
  analyze <file.air> [options]   run the static detector on an app bundle
  dynamic <file.air> [options]   run the dynamic (EventRacer-style) detector
  verify <file.air> [options]    statically detect, then verify the surviving
                                 races by hunting both orders dynamically
  lint <file.air> [options]      structural verification plus dataflow
                                 lint (use-before-def, unreachable
                                 blocks, dead stores, leaked
                                 registrations); non-zero exit on any
                                 finding
  dump <app> [-o FILE]           write a corpus app as an app bundle
                                 (<app> is a Table 2 name or fdroid-N)
  harness <file.air> <activity>  print the generated harness for one activity
  actions <file.air> <activity>  print the actions and HB relations of one
                                 activity's harness (SHBG introspection)
  serve [options]                run as a long-lived analysis daemon
                                 speaking jsonl on stdin/stdout (see
                                 docs/DAEMON_PROTOCOL.md)
  list                           list corpus apps and race patterns
  help                           this message

analyze options:
  --policy P        insensitive | k-cfa | k-obj | hybrid | action-sensitive
                    (default: action-sensitive)
  --k N             context depth (default 1)
  --no-refute       skip symbolic refutation
  --no-inflated-view  disable the InflatedViewContext abstraction
  --index-sensitive   per-element array locations (removes the
                      index-insensitivity FP class)
  --node-cache      enable the paper's refuted-node cache
  --jobs N          worker threads for harness analysis and sharded
                    refutation (default: SIERRA_JOBS env var, else
                    hardware concurrency; reports are identical at
                    every N)
  --no-dataflow     disable the dataflow stage (effect prefilter and
                    constant facts in the refuter)
  --no-escape       disable the escape stage (thread-local accesses
                    are kept in the racy-pair loop)
  --no-lockset      disable lock-set refutation (monitor-guarded
                    pairs reach the symbolic refuter)
  --no-ifds         disable the interprocedural constant stage (the
                    refuter loses setter/return summaries and the
                    use-after-destroy section is skipped)
  --no-deadlock     disable the deadlock stage (the lock-dependency
                    cycle search; the deadlocks section is skipped)
  --no-enablement   disable enablement refutation (pairs whose
                    callback is provably unregistered/removed before
                    the other action runs are no longer pruned)
  --no-nullflow     disable null-value-flow severity classification
                    (surviving races lose their HARMFUL/GUARDED/
                    UNKNOWN severity tags and severity-sorted order)
  --no-icc          disable inter-component (Intent) modeling: target
                    activities launched via startActivity/PendingIntent
                    are not driven by the sender's harness, so
                    cross-component races are missed
  --max-races N     cap the printed race list (default 50)
  --show-refuted    also print refuted candidates
  --trace FILE      write a Chrome trace-event JSON profile of the run
                    (open in Perfetto or chrome://tracing; see
                    docs/OBSERVABILITY.md)
  --metrics         collect and print the pipeline metrics registry
                    (embedded under "metrics" with --json)
  --json            machine-readable output

lint options:
  --errors-only     report only errors (skip warnings)
  --json            machine-readable output: a JSON array of findings
                    with severity/where/message fields ("[]" when
                    clean; exit codes are unchanged)

dynamic options:
  --schedules N     randomized schedules to run (default 3)
  --seed N          base RNG seed (default 1)
  --no-coverage-filter  disable the race-coverage filter

serve options:
  --store DIR       persist the artifact store to DIR so later daemon
                    runs warm-start from it (default: memory only;
                    caching model in docs/CACHING.md)
  --socket PATH     listen on a Unix domain socket instead of
                    stdin/stdout (one connection at a time)
  --jobs N          default worker threads per analyze request
                    (overridable per request)
)";

struct ParsedFlags {
    std::map<std::string, std::string> values;
    std::vector<std::string> positional;
    std::string error;

    bool has(const std::string &flag) const { return values.count(flag); }
    std::string
    get(const std::string &flag, const std::string &fallback = "") const
    {
        auto it = values.find(flag);
        return it == values.end() ? fallback : it->second;
    }
    int
    getInt(const std::string &flag, int fallback) const
    {
        auto it = values.find(flag);
        if (it == values.end())
            return fallback;
        try {
            return std::stoi(it->second);
        } catch (...) {
            return fallback;
        }
    }
};

/** Flags that take a value; all others are booleans. */
bool
flagTakesValue(const std::string &flag)
{
    static const char *valued[] = {"--policy", "--k", "--max-races",
                                   "--jobs", "--schedules", "--seed",
                                   "--trace", "--store", "--socket",
                                   "-o"};
    for (const char *v : valued) {
        if (flag == v)
            return true;
    }
    return false;
}

ParsedFlags
parseFlags(const std::vector<std::string> &args, size_t start)
{
    ParsedFlags out;
    for (size_t i = start; i < args.size(); ++i) {
        const std::string &a = args[i];
        if (a.rfind("-", 0) != 0) {
            out.positional.push_back(a);
            continue;
        }
        if (flagTakesValue(a)) {
            if (i + 1 >= args.size()) {
                out.error = a + " requires a value";
                return out;
            }
            out.values[a] = args[++i];
        } else {
            out.values[a] = "1";
        }
    }
    return out;
}

bool
policyFromName(const std::string &name, analysis::ContextPolicy &out)
{
    using analysis::ContextPolicy;
    static const struct {
        const char *n;
        ContextPolicy p;
    } table[] = {
        {"insensitive", ContextPolicy::Insensitive},
        {"k-cfa", ContextPolicy::KCfa},
        {"k-obj", ContextPolicy::KObj},
        {"hybrid", ContextPolicy::Hybrid},
        {"action-sensitive", ContextPolicy::ActionSensitive},
    };
    for (const auto &e : table) {
        if (name == e.n) {
            out = e.p;
            return true;
        }
    }
    return false;
}

/** Load an app bundle or a corpus app named on the command line. */
std::unique_ptr<framework::App>
loadApp(const std::string &spec, std::ostream &err)
{
    std::ifstream in(spec);
    if (!in) {
        err << "error: cannot open '" << spec << "'\n";
        return nullptr;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    framework::AppTextResult result =
        framework::parseAppText(buffer.str());
    if (!result.ok()) {
        err << "error: " << spec << ":" << result.errorLine << ": "
            << result.error << "\n";
        return nullptr;
    }
    return std::move(result.app);
}

/** Build a corpus app by name ("OpenSudoku" or "fdroid-17"). */
corpus::BuiltApp
buildCorpusApp(const std::string &name, bool &ok, std::ostream &err)
{
    ok = true;
    if (name.rfind("fdroid-", 0) == 0) {
        int index = -1;
        try {
            index = std::stoi(name.substr(7));
        } catch (...) {
        }
        if (index < 0 || index >= corpus::kFdroidAppCount) {
            err << "error: fdroid index out of range (0-"
                << corpus::kFdroidAppCount - 1 << ")\n";
            ok = false;
            return {};
        }
        return corpus::buildFdroidApp(index);
    }
    for (const auto &spec : corpus::namedAppSpecs()) {
        if (spec.name == name)
            return corpus::buildNamedApp(spec);
    }
    err << "error: unknown corpus app '" << name
        << "' (try 'sierra list')\n";
    ok = false;
    return {};
}

/** A real as an ostream at its default precision (6 significant
 *  digits) prints it: the report's reals carry no more. */
Json
real6(double v)
{
    return Json::real(util::roundSignificant(v, 6));
}

Json
reportJson(const AppReport &report,
           const util::metrics::Registry *metrics)
{
    Json root = Json::object();
    // Bumped whenever a field is added, renamed or retyped, so
    // downstream consumers can gate on the shape they understand.
    // v3: per-race severity + provenance, harmful/guarded tallies,
    // timesMs gains the nullflow stage.
    root.set("schemaVersion", Json::integer(3));
    root.set("app", Json::str(report.app));
    root.set("harnesses", Json::integer(report.harnesses));
    root.set("actions", Json::integer(report.actions));
    root.set("hbEdges", Json::integer(report.hbEdges));
    root.set("orderedPct", real6(report.orderedPct));
    root.set("racyPairs", Json::integer(report.racyPairs));
    root.set("afterRefutation", Json::integer(report.afterRefutation));
    root.set("locksetRefuted", Json::integer(report.locksetRefuted));
    root.set("enablementRefuted",
             Json::integer(report.enablementRefuted));
    root.set("harmfulRaces", Json::integer(report.harmfulRaces));
    root.set("guardedRaces", Json::integer(report.guardedRaces));
    root.set("accessesDropped", Json::integer(report.accessesDropped));
    // Generated from the stage table like the text `time:` line, but
    // every key is always present (report_times_test pins this).
    Json times = Json::object();
    for (const Stage &stage : kStages)
        times.set(stage.jsonKey, real6(report.times[stage.id] * 1e3));
    times.set("totalCpu", real6(report.times.totalCpu * 1e3));
    times.set("total", real6(report.times.total * 1e3));
    root.set("timesMs", std::move(times));
    if (metrics)
        root.set("metrics", metrics->toJson());
    Json uads = Json::array();
    for (const auto &f : report.useAfterDestroy) {
        Json uad = Json::object();
        uad.set("field", Json::str(f.fieldKey));
        uad.set("teardownAction", Json::str(f.teardownAction));
        uad.set("useAction", Json::str(f.useAction));
        uad.set("writeMethod", Json::str(f.writeMethod));
        uad.set("readMethod", Json::str(f.readMethod));
        uads.push(std::move(uad));
    }
    root.set("useAfterDestroy", std::move(uads));
    Json deadlocks = Json::array();
    for (const auto &f : report.deadlocks) {
        Json edges = Json::array();
        for (const auto &e : f.edges) {
            Json edge = Json::object();
            edge.set("heldLock", Json::str(e.heldLock));
            edge.set("acquiredLock", Json::str(e.acquiredLock));
            edge.set("method", Json::str(e.method));
            edge.set("instrIdx", Json::integer(e.instrIdx));
            edge.set("action", Json::str(e.actionLabel));
            edges.push(std::move(edge));
        }
        Json deadlock = Json::object();
        deadlock.set("edges", std::move(edges));
        deadlocks.push(std::move(deadlock));
    }
    root.set("deadlocks", std::move(deadlocks));
    Json races = Json::array();
    for (const auto &race : report.races) {
        Json r = Json::object();
        r.set("location", Json::str(race.fieldKey));
        r.set("priority", Json::integer(race.priority));
        r.set("refuted", Json::boolean(race.refuted));
        r.set("severity",
              Json::str(analysis::nullVerdictName(race.severity)));
        r.set("provenance", Json::str(race.severityChain));
        r.set("description", Json::str(race.description));
        races.push(std::move(r));
    }
    root.set("races", std::move(races));
    return root;
}

int
cmdAnalyze(const ParsedFlags &flags, std::ostream &out,
           std::ostream &err)
{
    if (flags.positional.empty()) {
        err << "error: analyze needs an app bundle file\n";
        return 2;
    }
    auto app = loadApp(flags.positional[0], err);
    if (!app)
        return 1;

    SierraOptions options;
    if (flags.has("--policy")) {
        if (!policyFromName(flags.get("--policy"),
                            options.pta.ctx.policy)) {
            err << "error: unknown policy '" << flags.get("--policy")
                << "'\n";
            return 2;
        }
    }
    options.pta.ctx.k = flags.getInt("--k", 1);
    options.pta.ctx.heapK = options.pta.ctx.k;
    options.pta.ctx.inflatedViewContext =
        !flags.has("--no-inflated-view");
    options.refuter.exec.useNodeCache = flags.has("--node-cache");
    options.pta.indexSensitiveArrays = flags.has("--index-sensitive");
    options.jobs = flags.getInt("--jobs", 0);
    for (const Stage &stage : kStages) {
        if (stage.flag && flags.has(stage.flag))
            disableStage(stage, options);
    }
    options.icc = !flags.has("--no-icc");

    util::metrics::Registry registry;
    const bool want_metrics = flags.has("--metrics");
    if (want_metrics)
        options.metrics = &registry;
    const std::string trace_path = flags.get("--trace");
    if (!trace_path.empty())
        util::trace::start();

    // ICC acts at harness generation, so the options must reach the
    // constructor, not just analyze().
    SierraDetector detector(*app, options);
    AppReport report = detector.analyze(options);

    int status = 0;
    if (!trace_path.empty() &&
        !util::trace::writeJson(trace_path)) {
        err << "error: cannot write trace file '" << trace_path
            << "'\n";
        status = 1;
    }

    if (flags.has("--json")) {
        out << reportJson(report, want_metrics ? &registry : nullptr)
                   .pretty()
            << "\n";
        return status;
    }
    out << formatReport(report, flags.getInt("--max-races", 50));
    if (want_metrics)
        out << "\n" << registry.toText();
    if (flags.has("--show-refuted")) {
        out << "refuted candidates:\n";
        for (const auto &race : report.races) {
            if (race.refuted)
                out << "  " << race.description << "\n";
        }
    }
    return status;
}

int
cmdDynamic(const ParsedFlags &flags, std::ostream &out,
           std::ostream &err)
{
    if (flags.positional.empty()) {
        err << "error: dynamic needs an app bundle file\n";
        return 2;
    }
    auto app = loadApp(flags.positional[0], err);
    if (!app)
        return 1;

    dynamic::EventRacerOptions options;
    options.numSchedules = flags.getInt("--schedules", 3);
    options.run.seed =
        static_cast<uint32_t>(flags.getInt("--seed", 1));
    options.raceCoverageFilter = !flags.has("--no-coverage-filter");

    dynamic::EventRacerReport report = runEventRacer(*app, options);
    out << "schedules: " << report.schedulesRun
        << "  events: " << report.eventsExecuted
        << "  raw races: " << report.rawRaceCount << "\n";
    for (const auto &race : report.races) {
        out << "  " << (race.filteredByCoverage ? "(filtered) " : "")
            << race.fieldKey << ": " << race.event1 << " || "
            << race.event2 << "\n";
    }
    return 0;
}

int
cmdVerify(const ParsedFlags &flags, std::ostream &out,
          std::ostream &err)
{
    if (flags.positional.empty()) {
        err << "error: verify needs an app bundle file\n";
        return 2;
    }
    auto app = loadApp(flags.positional[0], err);
    if (!app)
        return 1;

    SierraDetector detector(*app);
    SierraOptions static_options;
    static_options.jobs = flags.getInt("--jobs", 0);
    AppReport report = detector.analyze(static_options);
    std::set<std::string> key_set;
    for (const auto &race : report.races) {
        if (!race.refuted)
            key_set.insert(race.fieldKey);
    }
    std::vector<std::string> keys(key_set.begin(), key_set.end());

    dynamic::RaceVerifierOptions options;
    options.numSchedules = flags.getInt("--schedules", 8);
    options.run.seed = static_cast<uint32_t>(flags.getInt("--seed", 1));
    dynamic::RaceVerificationReport verification =
        verifyRacesDynamically(*app, keys, options);

    out << "static reports: " << keys.size() << "\n";
    out << "  confirmed (both orders observed): "
        << verification.confirmed << "\n";
    out << "  conflict observed (single order): "
        << verification.observed << "\n";
    out << "  never observed (schedules missed them): "
        << verification.unobserved << "\n";
    for (const auto &race : verification.races) {
        const char *tag = race.bothOrdersObserved ? "CONFIRMED "
                          : race.conflictObserved ? "observed  "
                                                  : "unobserved";
        out << "  " << tag << " " << race.fieldKey << " ("
            << race.schedulesWithConflict << " schedules)\n";
    }
    return 0;
}

int
cmdLint(const ParsedFlags &flags, std::ostream &out, std::ostream &err)
{
    if (flags.positional.empty()) {
        err << "error: lint needs an app bundle file\n";
        return 2;
    }
    auto app = loadApp(flags.positional[0], err);
    if (!app)
        return 1;

    std::vector<air::VerifyIssue> issues =
        air::verifyModule(app->module());
    for (air::VerifyIssue &issue :
         analysis::lintModule(app->module())) {
        issues.push_back(std::move(issue));
    }

    const bool errors_only = flags.has("--errors-only");
    if (flags.has("--json")) {
        // Same findings and exit codes as the text form, as a JSON
        // array (one object per finding, "[]" when clean).
        Json found = Json::array();
        for (const air::VerifyIssue &issue : issues) {
            if (errors_only && issue.severity != air::Severity::Error)
                continue;
            Json item = Json::object();
            item.set("severity",
                     Json::str(air::severityName(issue.severity)));
            item.set("where", Json::str(issue.where));
            item.set("message", Json::str(issue.message));
            found.push(std::move(item));
        }
        out << found.pretty() << "\n";
        return found.items().empty() ? 0 : 1;
    }
    int shown = 0;
    for (const air::VerifyIssue &issue : issues) {
        if (errors_only && issue.severity != air::Severity::Error)
            continue;
        out << issue.toString() << "\n";
        ++shown;
    }
    if (shown == 0) {
        out << "no issues\n";
        return 0;
    }
    out << shown << " issue(s)\n";
    return 1;
}

int
cmdDump(const ParsedFlags &flags, std::ostream &out, std::ostream &err)
{
    if (flags.positional.empty()) {
        err << "error: dump needs a corpus app name\n";
        return 2;
    }
    bool ok = false;
    corpus::BuiltApp built =
        buildCorpusApp(flags.positional[0], ok, err);
    if (!ok)
        return 1;
    std::string text = framework::printAppText(*built.app);
    if (flags.has("-o")) {
        std::ofstream file(flags.get("-o"));
        if (!file) {
            err << "error: cannot write '" << flags.get("-o") << "'\n";
            return 1;
        }
        file << text;
        out << "wrote " << text.size() << " bytes to "
            << flags.get("-o") << "\n";
    } else {
        out << text;
    }
    return 0;
}

int
cmdActions(const ParsedFlags &flags, std::ostream &out,
           std::ostream &err)
{
    if (flags.positional.size() < 2) {
        err << "error: actions needs <file.air> <activity>\n";
        return 2;
    }
    auto app = loadApp(flags.positional[0], err);
    if (!app)
        return 1;
    if (!app->manifest().hasActivity(flags.positional[1])) {
        err << "error: no such activity '" << flags.positional[1]
            << "'\n";
        return 1;
    }
    SierraDetector detector(*app);
    SierraOptions options;
    options.runRefutation = false;
    HarnessAnalysis ha =
        detector.analyzeActivity(flags.positional[1], options);

    out << "actions (" << ha.numActions() << "):\n";
    for (const auto &action : ha.pta->actions.all()) {
        if (action.kind == analysis::ActionKind::HarnessRoot)
            continue;
        out << "  [" << action.id << "] "
            << analysis::actionKindName(action.kind) << " "
            << action.label << " ("
            << analysis::threadAffinityName(action.affinity);
        if (action.messageWhat >= 0)
            out << ", what=" << action.messageWhat;
        if (action.creator > 0)
            out << ", creator=" << action.creator;
        out << ")\n";
    }
    out << "\nHB edges by rule:\n";
    for (auto rule :
         {hb::HbRule::Invocation, hb::HbRule::Lifecycle,
          hb::HbRule::GuiOrder, hb::HbRule::AsyncChain,
          hb::HbRule::IntraProcDom, hb::HbRule::InterProcDom,
          hb::HbRule::InterActionTrans}) {
        out << "  " << hb::hbRuleName(rule) << ": "
            << ha.shbg->numEdgesByRule(rule) << "\n";
    }
    out << "closure: " << ha.shbg->numClosurePairs()
        << " ordered pairs ("
        << static_cast<int>(100 * ha.shbg->orderedFraction() + 0.5)
        << "%)\n";
    return 0;
}

int
cmdHarness(const ParsedFlags &flags, std::ostream &out,
           std::ostream &err)
{
    if (flags.positional.size() < 2) {
        err << "error: harness needs <file.air> <activity>\n";
        return 2;
    }
    auto app = loadApp(flags.positional[0], err);
    if (!app)
        return 1;
    if (!app->manifest().hasActivity(flags.positional[1])) {
        err << "error: no such activity '" << flags.positional[1]
            << "'\n";
        return 1;
    }
    SierraDetector detector(*app);
    const air::Klass *harness_cls = app->module().getClass(
        "Harness$" + flags.positional[1]);
    out << air::printKlass(*harness_cls);
    return 0;
}

int
cmdServe(const ParsedFlags &flags, std::ostream &out,
         std::ostream &err)
{
    serve::ServeOptions options;
    options.storeDir = flags.get("--store");
    options.jobs = flags.getInt("--jobs", 0);
    if (flags.has("--socket"))
        return serve::serveSocket(flags.get("--socket"), options, err);
    // stdin/stdout transport: requests arrive on std::cin; `out` is
    // the session's response stream (the tests pass stringstreams).
    serve::serveLoop(std::cin, out, options);
    return 0;
}

int
cmdList(std::ostream &out)
{
    out << "corpus apps (paper Table 2):\n";
    for (const auto &spec : corpus::namedAppSpecs()) {
        out << "  " << spec.name << " (" << spec.activities
            << " activities)\n";
    }
    out << "synthetic apps: fdroid-0 .. fdroid-"
        << corpus::kFdroidAppCount - 1 << "\n";
    out << "race patterns:\n";
    for (const auto &entry : corpus::patternCatalog()) {
        out << "  " << entry.name << " (" << entry.seededTrueRaces
            << " true races, " << entry.seededTraps << " traps)\n";
    }
    return 0;
}

} // namespace

int
runCli(const std::vector<std::string> &args, std::ostream &out,
       std::ostream &err)
{
    if (args.empty() || args[0] == "help" || args[0] == "--help") {
        out << kUsage;
        return args.empty() ? 2 : 0;
    }
    const std::string &command = args[0];
    ParsedFlags flags = parseFlags(args, 1);
    if (!flags.error.empty()) {
        err << "error: " << flags.error << "\n";
        return 2;
    }
    if (command == "analyze")
        return cmdAnalyze(flags, out, err);
    if (command == "dynamic")
        return cmdDynamic(flags, out, err);
    if (command == "verify")
        return cmdVerify(flags, out, err);
    if (command == "lint")
        return cmdLint(flags, out, err);
    if (command == "dump")
        return cmdDump(flags, out, err);
    if (command == "harness")
        return cmdHarness(flags, out, err);
    if (command == "actions")
        return cmdActions(flags, out, err);
    if (command == "serve")
        return cmdServe(flags, out, err);
    if (command == "list")
        return cmdList(out);
    err << "error: unknown command '" << command
        << "' (try 'sierra help')\n";
    return 2;
}

} // namespace sierra::cli

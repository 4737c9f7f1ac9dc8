#include "artifact.hh"

#include <algorithm>
#include <charconv>
#include <map>
#include <sstream>
#include <string_view>
#include <tuple>

#include "air/klass.hh"
#include "air/method.hh"
#include "analysis/store.hh"
#include "detector.hh"

namespace sierra {

namespace {

// v2: race rows carry the nullflow severity verdict + chain. The
// version is part of the first line, so v1 blobs fail parseArtifact
// and the store recomputes them (never a silently missing severity).
constexpr const char *kMagic = "harness-artifact v2";

/** Escape a field so it can live inside a tab-separated line. */
std::string
esc(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '\\': out += "\\\\"; break;
          case '\t': out += "\\t"; break;
          case '\n': out += "\\n"; break;
          default: out += c;
        }
    }
    return out;
}

std::string
unesc(std::string_view s)
{
    if (s.find('\\') == std::string_view::npos)
        return std::string(s);
    std::string out;
    out.reserve(s.size());
    for (size_t i = 0; i < s.size(); ++i) {
        if (s[i] != '\\' || i + 1 >= s.size()) {
            out += s[i];
            continue;
        }
        ++i;
        switch (s[i]) {
          case 't': out += '\t'; break;
          case 'n': out += '\n'; break;
          default: out += s[i];
        }
    }
    return out;
}

/** Split a line on raw tabs (escaped tabs survive as "\\t") into
 *  views of the line. */
void
splitFields(std::string_view line, std::vector<std::string_view> &out)
{
    out.clear();
    while (true) {
        size_t tab = line.find('\t');
        out.push_back(line.substr(0, tab));
        if (tab == std::string_view::npos)
            return;
        line.remove_prefix(tab + 1);
    }
}

bool
parseInt(std::string_view s, int64_t &out)
{
    const char *end = s.data() + s.size();
    auto [ptr, ec] = std::from_chars(s.data(), end, out);
    return ec == std::errc() && ptr == end;
}

} // namespace

HarnessArtifact
makeArtifact(const HarnessAnalysis &ha)
{
    HarnessArtifact art;
    art.activity = ha.activity;
    art.actions = ha.numActions();
    art.hbEdges = ha.hbEdges();
    art.accessesTotal = ha.accessesTotal;
    art.accessesDropped = ha.accessesDropped;
    art.locksetRefuted = ha.locksetRefuted;
    art.enablementRefuted = ha.enablementRefuted;
    art.useAfterDestroy = ha.useAfterDestroy;
    art.deadlocks = ha.deadlocks;

    // Race rows: the same site normalization the app-level dedup key
    // applies, with the description rendered now so a reused artifact
    // reproduces the cold report's text exactly.
    for (const race::RacyPair &p : ha.pairs) {
        const race::Access &x = ha.accesses[p.access1];
        const race::Access &y = ha.accesses[p.access2];
        ArtifactRace r;
        r.m1 = ha.pta->cg.node(x.node).method->qualifiedName();
        r.i1 = x.instrIdx;
        r.m2 = ha.pta->cg.node(y.node).method->qualifiedName();
        r.i2 = y.instrIdx;
        if (std::tie(r.m2, r.i2) < std::tie(r.m1, r.i1)) {
            std::swap(r.m1, r.m2);
            std::swap(r.i1, r.i2);
        }
        r.key = p.loc.key.str();
        r.description = p.toString(*ha.pta, ha.accesses);
        r.priority = p.priority;
        r.refuted = p.refuted;
        r.severity = p.severity;
        r.severityChain = p.severityChain;
        art.races.push_back(std::move(r));
    }

    // Footprint: every distinct non-framework method with a body that
    // appears in the harness's call graph (under any context). A body
    // edit to any of them re-keys its entry and invalidates the
    // artifact; methods outside the footprint cannot affect it.
    std::map<std::string, uint64_t> fp;
    const analysis::CallGraph &cg = ha.pta->cg;
    for (int n = 0; n < cg.numNodes(); ++n) {
        const air::Method *m = cg.node(n).method;
        if (!m || !m->hasBody())
            continue;
        if (m->owner() && m->owner()->isFramework())
            continue;
        std::string name = m->qualifiedName();
        if (!fp.count(name))
            fp[name] = analysis::store::methodEnvHash(*m);
    }
    art.footprint.assign(fp.begin(), fp.end());
    return art;
}

std::string
serializeArtifact(const HarnessArtifact &a)
{
    std::ostringstream os;
    os << kMagic << "\n";
    os << "activity\t" << esc(a.activity) << "\n";
    os << "counts\t" << a.actions << "\t" << a.hbEdges << "\t"
       << a.accessesTotal << "\t" << a.accessesDropped << "\t"
       << a.locksetRefuted << "\t" << a.enablementRefuted << "\n";
    for (const ArtifactRace &r : a.races) {
        os << "race\t" << esc(r.m1) << "\t" << r.i1 << "\t"
           << esc(r.m2) << "\t" << r.i2 << "\t" << esc(r.key) << "\t"
           << r.priority << "\t" << (r.refuted ? 1 : 0) << "\t"
           << analysis::nullVerdictName(r.severity) << "\t"
           << esc(r.severityChain) << "\t"
           << esc(r.description) << "\n";
    }
    for (const analysis::UseAfterDestroyFinding &f : a.useAfterDestroy) {
        os << "uad\t" << esc(f.fieldKey) << "\t"
           << esc(f.teardownAction) << "\t" << esc(f.useAction) << "\t"
           << esc(f.writeMethod) << "\t" << esc(f.readMethod) << "\t"
           << f.writeInstr << "\t" << f.readInstr << "\n";
    }
    for (const analysis::DeadlockFinding &f : a.deadlocks) {
        os << "dl\t" << f.edges.size();
        for (const analysis::DeadlockEdge &e : f.edges) {
            os << "\t" << esc(e.heldLock) << "\t"
               << esc(e.acquiredLock) << "\t" << esc(e.method) << "\t"
               << e.instrIdx << "\t" << esc(e.actionLabel);
        }
        os << "\n";
    }
    for (const auto &[method, hash] : a.footprint) {
        os << "fp\t" << esc(method) << "\t"
           << analysis::store::hashHex(hash) << "\n";
    }
    return os.str();
}

std::optional<HarnessArtifact>
parseArtifact(const std::string &blob)
{
    // Views into the blob: a warm submission parses every reused
    // artifact, so no line or field is copied until it is kept.
    using analysis::store::nextLine;
    std::string_view rest(blob), line;
    if (!nextLine(rest, line) || line != kMagic)
        return std::nullopt;

    HarnessArtifact a;
    bool saw_activity = false, saw_counts = false;
    std::vector<std::string_view> f;
    while (nextLine(rest, line)) {
        if (line.empty())
            continue;
        splitFields(line, f);
        const std::string_view tag = f[0];
        if (tag == "activity" && f.size() == 2) {
            a.activity = unesc(f[1]);
            saw_activity = true;
        } else if (tag == "counts" && f.size() == 7) {
            int64_t v[6];
            for (int i = 0; i < 6; ++i) {
                if (!parseInt(f[i + 1], v[i]))
                    return std::nullopt;
            }
            a.actions = static_cast<int>(v[0]);
            a.hbEdges = v[1];
            a.accessesTotal = static_cast<int>(v[2]);
            a.accessesDropped = static_cast<int>(v[3]);
            a.locksetRefuted = static_cast<int>(v[4]);
            a.enablementRefuted = static_cast<int>(v[5]);
            saw_counts = true;
        } else if (tag == "race" && f.size() == 11) {
            ArtifactRace r;
            int64_t i1, i2, prio, refuted;
            if (!parseInt(f[2], i1) || !parseInt(f[4], i2) ||
                !parseInt(f[6], prio) || !parseInt(f[7], refuted))
                return std::nullopt;
            if (!analysis::nullVerdictFromName(std::string(f[8]),
                                                r.severity))
                return std::nullopt;
            r.m1 = unesc(f[1]);
            r.i1 = static_cast<int>(i1);
            r.m2 = unesc(f[3]);
            r.i2 = static_cast<int>(i2);
            r.key = unesc(f[5]);
            r.priority = static_cast<int>(prio);
            r.refuted = refuted != 0;
            r.severityChain = unesc(f[9]);
            r.description = unesc(f[10]);
            a.races.push_back(std::move(r));
        } else if (tag == "uad" && f.size() == 8) {
            analysis::UseAfterDestroyFinding u;
            int64_t wi, ri;
            if (!parseInt(f[6], wi) || !parseInt(f[7], ri))
                return std::nullopt;
            u.fieldKey = unesc(f[1]);
            u.teardownAction = unesc(f[2]);
            u.useAction = unesc(f[3]);
            u.writeMethod = unesc(f[4]);
            u.readMethod = unesc(f[5]);
            u.writeInstr = static_cast<int>(wi);
            u.readInstr = static_cast<int>(ri);
            a.useAfterDestroy.push_back(std::move(u));
        } else if (tag == "dl" && f.size() >= 2) {
            // Bound the edge count by the fields present before
            // multiplying: a corrupt count must not overflow.
            int64_t n;
            if (!parseInt(f[1], n) || n < 0 ||
                n > static_cast<int64_t>((f.size() - 2) / 5) ||
                f.size() != static_cast<size_t>(2 + n * 5))
                return std::nullopt;
            analysis::DeadlockFinding d;
            for (int64_t i = 0; i < n; ++i) {
                size_t base = 2 + static_cast<size_t>(i) * 5;
                analysis::DeadlockEdge e;
                int64_t instr;
                if (!parseInt(f[base + 3], instr))
                    return std::nullopt;
                e.heldLock = unesc(f[base]);
                e.acquiredLock = unesc(f[base + 1]);
                e.method = unesc(f[base + 2]);
                e.instrIdx = static_cast<int>(instr);
                e.actionLabel = unesc(f[base + 4]);
                d.edges.push_back(std::move(e));
            }
            a.deadlocks.push_back(std::move(d));
        } else if (tag == "fp" && f.size() == 3) {
            std::optional<uint64_t> hash =
                analysis::store::parseHashHex(f[2]);
            if (!hash)
                return std::nullopt;
            a.footprint.emplace_back(unesc(f[1]), *hash);
        } else {
            return std::nullopt;
        }
    }
    if (!saw_activity || !saw_counts)
        return std::nullopt;
    return a;
}

} // namespace sierra

#include "store.hh"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "air/klass.hh"
#include "air/method.hh"
#include "air/printer.hh"
#include "framework/app.hh"
#include "framework/app_text.hh"
#include "framework/known_api.hh"

namespace sierra::analysis::store {

namespace fs = std::filesystem;

uint64_t
fnv64(std::string_view bytes, uint64_t seed)
{
    uint64_t h = seed;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

uint64_t
mixHash(uint64_t acc, uint64_t value)
{
    // Order-dependent and a bijection in `value` for a fixed `acc`
    // (odd multiply, then the splitmix64 finalizer): one word per
    // round instead of eight FNV byte steps, since method hashing
    // mixes about a dozen words per instruction on every submission.
    uint64_t z = acc ^ (value * 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::string
hashHex(uint64_t value)
{
    static const char *digits = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[i] = digits[value & 0xf];
        value >>= 4;
    }
    return out;
}

std::optional<uint64_t>
parseHashHex(std::string_view hex)
{
    if (hex.size() != 16)
        return std::nullopt;
    uint64_t value = 0;
    for (char c : hex) {
        int digit;
        if (c >= '0' && c <= '9')
            digit = c - '0';
        else if (c >= 'a' && c <= 'f')
            digit = c - 'a' + 10;
        else
            return std::nullopt;
        value = (value << 4) | static_cast<uint64_t>(digit);
    }
    return value;
}

bool
nextLine(std::string_view &rest, std::string_view &line)
{
    if (rest.empty())
        return false;
    const size_t nl = rest.find('\n');
    line = rest.substr(0, nl);
    rest.remove_prefix(nl == std::string_view::npos ? rest.size()
                                                    : nl + 1);
    return true;
}

uint64_t
classSliceHash(const air::Klass &klass)
{
    std::ostringstream os;
    os << (klass.isInterface() ? "interface " : "class ")
       << klass.name() << " extends " << klass.superName() << "\n";
    for (const std::string &iface : klass.interfaces())
        os << "implements " << iface << "\n";
    for (const air::Field &f : klass.fields()) {
        os << "field " << (f.isStatic ? "static " : "") << f.name
           << ": " << f.type.toString() << "\n";
    }
    return fnv64(os.str());
}

namespace {

/**
 * Content hash of one method: signature plus every instruction's
 * semantic fields, mixed in order. Hashing the fields directly instead
 * of the printed text discriminates at least as finely (the text is a
 * function of the fields) at a fraction of the cost -- this runs for
 * every method on every submission, warm or cold.
 */
uint64_t
hashMethodBody(const air::Method &method)
{
    uint64_t h = fnv64(method.name());
    for (const air::Type &t : method.paramTypes())
        h = fnv64(t.toString(), h);
    h = fnv64(method.returnType().toString(), h);
    h = mixHash(h, method.isStatic() ? 1 : 0);
    h = mixHash(h, static_cast<uint64_t>(method.numRegisters()));
    h = mixHash(h, static_cast<uint64_t>(method.numInstrs()));
    for (int i = 0; i < method.numInstrs(); ++i) {
        const air::Instruction &ins = method.instr(i);
        h = mixHash(h, static_cast<uint64_t>(ins.op));
        h = mixHash(h, static_cast<uint64_t>(ins.dst));
        for (int src : ins.srcs)
            h = mixHash(h, static_cast<uint64_t>(src));
        h = mixHash(h, static_cast<uint64_t>(ins.intValue));
        if (!ins.strValue.empty())
            h = fnv64(ins.strValue, h);
        if (!ins.typeName.empty())
            h = fnv64(ins.typeName, h);
        h = fnv64(ins.field.className, h);
        h = fnv64(ins.field.fieldName, h);
        h = fnv64(ins.method.className, h);
        h = fnv64(ins.method.methodName, h);
        h = mixHash(h, static_cast<uint64_t>(ins.method.numArgs));
        h = mixHash(h, static_cast<uint64_t>(ins.invokeKind));
        h = mixHash(h, static_cast<uint64_t>(ins.cond));
        h = mixHash(h, static_cast<uint64_t>(ins.binop));
        h = mixHash(h, static_cast<uint64_t>(ins.unop));
        h = mixHash(h, static_cast<uint64_t>(ins.target));
    }
    return h;
}

uint64_t
envHashWithSlice(const air::Method &method, uint64_t slice_hash)
{
    uint64_t h = hashMethodBody(method);
    h = mixHash(h, slice_hash);
    h = mixHash(h, static_cast<uint64_t>(
                       framework::kKnownApiTableVersion));
    h = mixHash(h, static_cast<uint64_t>(kStoreSchemaVersion));
    return h;
}

} // namespace

uint64_t
methodEnvHash(const air::Method &method)
{
    return envHashWithSlice(
        method, method.owner() ? classSliceHash(*method.owner()) : 0);
}

std::map<std::string, uint64_t>
hashMethods(const framework::App &app)
{
    std::map<std::string, uint64_t> out;
    for (const air::Klass *klass : app.module().classes()) {
        if (klass->isFramework())
            continue;
        // One slice hash per class, not per method: the slice is the
        // same for every member and its string is costly to rebuild.
        const uint64_t slice = classSliceHash(*klass);
        for (const auto &m : klass->methods()) {
            if (!m->hasBody())
                continue;
            out[m->qualifiedName()] = envHashWithSlice(*m, slice);
        }
    }
    return out;
}

uint64_t
shapeHash(const framework::App &app)
{
    // The body-less bundle print covers manifest, layouts and app
    // class shapes: class names, supers, fields, method signatures
    // (including regs=), widget trees -- everything except the
    // instruction lines. A body edit keeps this hash stable.
    uint64_t h = fnv64(framework::printAppText(app, false));
    h = mixHash(h, static_cast<uint64_t>(
                       framework::kKnownApiTableVersion));
    h = mixHash(h, static_cast<uint64_t>(kStoreSchemaVersion));
    return h;
}

std::string
serializeMethodIndex(const std::map<std::string, uint64_t> &index)
{
    std::ostringstream os;
    for (const auto &[name, hash] : index)
        os << name << "\t" << hashHex(hash) << "\n";
    return os.str();
}

std::map<std::string, uint64_t>
parseMethodIndex(const std::string &blob)
{
    std::map<std::string, uint64_t> out;
    std::string_view rest(blob), line;
    while (nextLine(rest, line)) {
        const size_t tab = line.find('\t');
        if (tab == 0 || tab == std::string_view::npos)
            continue;
        // Lines arrive sorted, so the end hint makes each insert O(1).
        if (std::optional<uint64_t> hash = parseHashHex(line.substr(tab + 1)))
            out.insert_or_assign(out.end(), std::string(line.substr(0, tab)),
                                 *hash);
    }
    return out;
}

// ---------------------------------------------------------------------
// DepIndex
// ---------------------------------------------------------------------

void
DepIndex::addEdge(const std::string &caller, const std::string &callee)
{
    if (caller == callee)
        return;
    _callers[callee].insert(caller);
}

void
DepIndex::merge(const DepIndex &other)
{
    for (const auto &[callee, callers] : other._callers)
        _callers[callee].insert(callers.begin(), callers.end());
}

void
DepIndex::prune(const std::set<std::string> &keep)
{
    std::map<std::string, std::set<std::string>> pruned;
    for (const auto &[callee, callers] : _callers) {
        if (!keep.count(callee))
            continue;
        std::set<std::string> kept;
        for (const std::string &c : callers) {
            if (keep.count(c))
                kept.insert(c);
        }
        if (!kept.empty())
            pruned[callee] = std::move(kept);
    }
    _callers = std::move(pruned);
}

std::set<std::string>
DepIndex::dirtyClosure(const std::set<std::string> &changed) const
{
    std::set<std::string> dirty = changed;
    std::vector<std::string> work(changed.begin(), changed.end());
    while (!work.empty()) {
        std::string m = std::move(work.back());
        work.pop_back();
        auto it = _callers.find(m);
        if (it == _callers.end())
            continue;
        for (const std::string &caller : it->second) {
            if (dirty.insert(caller).second)
                work.push_back(caller);
        }
    }
    return dirty;
}

std::vector<std::string>
DepIndex::callersOf(const std::string &method) const
{
    auto it = _callers.find(method);
    if (it == _callers.end())
        return {};
    return {it->second.begin(), it->second.end()};
}

int64_t
DepIndex::numEdges() const
{
    int64_t n = 0;
    for (const auto &[callee, callers] : _callers)
        n += static_cast<int64_t>(callers.size());
    return n;
}

std::string
DepIndex::serialize() const
{
    std::ostringstream os;
    for (const auto &[callee, callers] : _callers) {
        for (const std::string &caller : callers)
            os << caller << "\t" << callee << "\n";
    }
    return os.str();
}

DepIndex
DepIndex::parse(const std::string &blob)
{
    DepIndex out;
    std::string_view rest(blob), line;
    while (nextLine(rest, line)) {
        const size_t tab = line.find('\t');
        if (tab == 0 || tab == std::string_view::npos ||
            tab + 1 == line.size())
            continue;
        out.addEdge(std::string(line.substr(0, tab)),
                    std::string(line.substr(tab + 1)));
    }
    return out;
}

// ---------------------------------------------------------------------
// Store
// ---------------------------------------------------------------------

std::string
Store::versionStamp()
{
    std::ostringstream os;
    os << "sierra-store schema " << kStoreSchemaVersion
       << " known-api " << framework::kKnownApiTableVersion << "\n";
    return os.str();
}

Store::Store(const std::string &dir) : _dir(dir)
{
    std::error_code ec;
    fs::create_directories(_dir, ec);
    const fs::path version_path = fs::path(_dir) / "VERSION";
    std::string on_disk;
    {
        std::ifstream in(version_path, std::ios::binary);
        std::ostringstream ss;
        ss << in.rdbuf();
        on_disk = ss.str();
    }
    if (!on_disk.empty() && on_disk != versionStamp()) {
        // Incompatible generation: discard rather than read blobs
        // written under another schema or known-API table version.
        for (const auto &entry : fs::directory_iterator(_dir, ec)) {
            if (entry.path().filename() != "VERSION")
                fs::remove_all(entry.path(), ec);
        }
    }
    std::ofstream out(version_path, std::ios::binary);
    out << versionStamp();
}

std::string
Store::pathFor(const std::string &kind, const std::string &key) const
{
    // Every key the analyzer writes is hex; the mapping only has to
    // keep other keys inside `dir/<kind>/`, so no '.' (no "..", and no
    // key that ends like a ".tmp" file).
    std::string safe;
    for (char c : key) {
        safe += (std::isalnum(static_cast<unsigned char>(c)) ||
                 c == '-' || c == '_')
                    ? c
                    : '_';
    }
    return _dir + "/" + kind + "/" + safe;
}

std::optional<std::string>
Store::get(const std::string &kind, const std::string &key)
{
    ++_stats.gets;
    const std::string mem_key = kind + "/" + key;
    auto it = _blobs.find(mem_key);
    if (it != _blobs.end()) {
        ++_stats.hits;
        return it->second;
    }
    if (_dir.empty())
        return std::nullopt;
    std::ifstream in(pathFor(kind, key), std::ios::binary);
    if (!in)
        return std::nullopt;
    std::ostringstream ss;
    ss << in.rdbuf();
    ++_stats.hits;
    ++_stats.diskReads;
    _blobs[mem_key] = ss.str();
    return _blobs[mem_key];
}

void
Store::put(const std::string &kind, const std::string &key,
           const std::string &blob)
{
    ++_stats.puts;
    _blobs[kind + "/" + key] = blob;
    if (!_dir.empty()) {
        std::error_code ec;
        fs::create_directories(fs::path(_dir) / kind, ec);
        const std::string path = pathFor(kind, key);
        const std::string tmp = path + ".tmp";
        std::ofstream out(tmp, std::ios::binary);
        out << blob;
        out.close();
        if (!out.fail())
            fs::rename(tmp, path, ec);
        if (out.fail() || ec) {
            // The blob stays served from memory; on disk nothing
            // changes, so a later process simply misses.
            fs::remove(tmp, ec);
            ++_stats.writeFailures;
            return;
        }
    }
    _stats.bytesWritten += static_cast<int64_t>(blob.size());
}

std::vector<std::string>
Store::keys(const std::string &kind) const
{
    std::set<std::string> out;
    const std::string prefix = kind + "/";
    for (const auto &[key, blob] : _blobs) {
        if (key.rfind(prefix, 0) == 0)
            out.insert(key.substr(prefix.size()));
    }
    if (!_dir.empty()) {
        std::error_code ec;
        for (const auto &entry :
             fs::directory_iterator(fs::path(_dir) / kind, ec)) {
            std::string name = entry.path().filename().string();
            if (name.size() > 4 &&
                name.compare(name.size() - 4, 4, ".tmp") == 0)
                continue;
            out.insert(name);
        }
    }
    return {out.begin(), out.end()};
}

} // namespace sierra::analysis::store

/**
 * @file
 * The one JSON value type and printer. Every JSON the program writes
 * goes through it: the CLI's `analyze --json` report and `lint
 * --json`, the metrics registry, the trace file and the daemon's
 * jsonl wire protocol (docs/DAEMON_PROTOCOL.md). Self-contained on
 * purpose, so the byte-level output is canonical: object keys in
 * insertion order, one string escaper, reals in shortest round-trip
 * form.
 */

#ifndef SIERRA_UTIL_JSON_HH
#define SIERRA_UTIL_JSON_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace sierra::util {

/** One JSON value. Numbers are int64 or double; parse() reads
 *  integers only, since no reader needs reals. */
class Json
{
  public:
    enum class Kind { Null, Bool, Int, Real, Str, Array, Object };

    /** Containers nested deeper than this are a parse error, so no
     *  input can exhaust the parser's stack. */
    static constexpr int kMaxDepth = 64;

    Json() = default;

    static Json null() { return Json(); }
    static Json boolean(bool b);
    static Json integer(int64_t v);
    static Json real(double v);
    static Json str(std::string s);
    static Json array();
    static Json object();

    Kind kind() const { return _kind; }
    bool isObject() const { return _kind == Kind::Object; }

    bool asBool() const { return _bool; }
    int64_t asInt() const { return _int; }
    double asReal() const { return _real; }
    const std::string &asStr() const { return _str; }
    const std::vector<Json> &items() const { return _items; }
    const std::vector<std::pair<std::string, Json>> &
    fields() const
    {
        return _fields;
    }

    /** Object field by key; null if absent or not an object. */
    const Json *field(const std::string &key) const;

    /** Object insert (keeps insertion order -- serialization order). */
    void set(const std::string &key, Json value);
    /** Array append. */
    void push(Json value);

    /** Canonical one-line form: no whitespace, `\uXXXX` only for
     *  control characters, reals in shortest round-trip form
     *  (non-finite reals as null). */
    std::string dump() const;

    /** Report layout: the root container and the arrays directly
     *  under it hold one element per line, indented two spaces a
     *  level; everything else is inline with `", "` and `": "`. */
    std::string pretty() const;

    /** Parse one JSON document; false + error (with an offset) on
     *  malformed input, a real, an integer outside int64, or nesting
     *  deeper than kMaxDepth. */
    static bool parse(const std::string &text, Json &out,
                      std::string &error);

  private:
    void write(std::string &out, int depth, bool pretty) const;

    Kind _kind{Kind::Null};
    bool _bool{false};
    int64_t _int{0};
    double _real{0};
    std::string _str;
    std::vector<Json> _items;                          //!< array
    std::vector<std::pair<std::string, Json>> _fields; //!< object
};

/** `v` rounded to `digits` significant decimal digits (what an
 *  ostream at that precision prints), for reals whose extra digits
 *  are noise. */
double roundSignificant(double v, int digits);

} // namespace sierra::util

#endif // SIERRA_UTIL_JSON_HH

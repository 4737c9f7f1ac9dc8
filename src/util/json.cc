#include "json.hh"

#include <charconv>
#include <cmath>
#include <string_view>

namespace sierra::util {

Json
Json::boolean(bool b)
{
    Json j;
    j._kind = Kind::Bool;
    j._bool = b;
    return j;
}

Json
Json::integer(int64_t v)
{
    Json j;
    j._kind = Kind::Int;
    j._int = v;
    return j;
}

Json
Json::real(double v)
{
    Json j;
    j._kind = Kind::Real;
    j._real = v;
    return j;
}

Json
Json::str(std::string s)
{
    Json j;
    j._kind = Kind::Str;
    j._str = std::move(s);
    return j;
}

Json
Json::array()
{
    Json j;
    j._kind = Kind::Array;
    return j;
}

Json
Json::object()
{
    Json j;
    j._kind = Kind::Object;
    return j;
}

const Json *
Json::field(const std::string &key) const
{
    if (_kind != Kind::Object)
        return nullptr;
    for (const auto &[k, v] : _fields) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

void
Json::set(const std::string &key, Json value)
{
    for (auto &[k, v] : _fields) {
        if (k == key) {
            v = std::move(value);
            return;
        }
    }
    _fields.emplace_back(key, std::move(value));
}

void
Json::push(Json value)
{
    _items.push_back(std::move(value));
}

double
roundSignificant(double v, int digits)
{
    char buf[64];
    auto printed = std::to_chars(buf, buf + sizeof(buf), v,
                                 std::chars_format::general, digits);
    double out = v;
    if (printed.ec != std::errc() ||
        std::from_chars(buf, printed.ptr, out).ec != std::errc())
        return v;
    return out;
}

namespace {

/** `s` as a quoted JSON string: `"` and `\` are backslashed, `\n`
 *  `\t` `\r` use their short forms and every other byte below 0x20
 *  becomes `\u00XX`. */
void
writeString(std::string &out, const std::string &s)
{
    out += '"';
    for (unsigned char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (c < 0x20) {
                static const char *hex = "0123456789abcdef";
                out += "\\u00";
                out += hex[c >> 4];
                out += hex[c & 0xf];
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    out += '"';
}

} // namespace

void
Json::write(std::string &out, int depth, bool pretty) const
{
    char buf[32];
    switch (_kind) {
      case Kind::Null:
        out += "null";
        return;
      case Kind::Bool:
        out += _bool ? "true" : "false";
        return;
      case Kind::Int:
        out.append(buf, std::to_chars(buf, buf + sizeof(buf), _int).ptr);
        return;
      case Kind::Real:
        if (!std::isfinite(_real))
            out += "null";
        else
            out.append(buf,
                       std::to_chars(buf, buf + sizeof(buf), _real).ptr);
        return;
      case Kind::Str:
        writeString(out, _str);
        return;
      case Kind::Array:
      case Kind::Object:
        break;
    }
    const bool is_array = _kind == Kind::Array;
    const size_t n = is_array ? _items.size() : _fields.size();
    const bool expanded =
        pretty && n > 0 && (depth == 0 || (depth == 1 && is_array));
    auto newline = [&](int indent) {
        out += '\n';
        out.append(2 * static_cast<size_t>(indent), ' ');
    };
    out += is_array ? '[' : '{';
    for (size_t i = 0; i < n; ++i) {
        if (i > 0)
            out += pretty && !expanded ? ", " : ",";
        if (expanded)
            newline(depth + 1);
        if (is_array) {
            _items[i].write(out, depth + 1, pretty);
            continue;
        }
        writeString(out, _fields[i].first);
        out += pretty ? ": " : ":";
        _fields[i].second.write(out, depth + 1, pretty);
    }
    if (expanded)
        newline(depth);
    out += is_array ? ']' : '}';
}

std::string
Json::dump() const
{
    std::string out;
    write(out, 0, false);
    return out;
}

std::string
Json::pretty() const
{
    std::string out;
    write(out, 0, true);
    return out;
}

// -- parsing ----------------------------------------------------------

namespace {

struct Parser {
    const std::string &text;
    size_t pos{0};
    std::string error;

    void
    skipWs()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r'))
            ++pos;
    }

    bool
    fail(const std::string &msg)
    {
        if (error.empty())
            error = msg + " at offset " + std::to_string(pos);
        return false;
    }

    bool
    literal(const char *word, Json value, Json &out)
    {
        const std::string_view w(word);
        if (text.compare(pos, w.size(), w) != 0)
            return fail("bad literal");
        pos += w.size();
        out = std::move(value);
        return true;
    }

    bool
    parseValue(Json &out, int depth)
    {
        skipWs();
        if (pos >= text.size())
            return fail("unexpected end of input");
        char c = text[pos];
        if ((c == '{' || c == '[') && depth >= Json::kMaxDepth)
            return fail("nesting deeper than " +
                        std::to_string(Json::kMaxDepth));
        if (c == '{' || c == '[')
            return parseContainer(out, c == '{', depth + 1);
        if (c == '"') {
            std::string s;
            if (!parseString(s))
                return false;
            out = Json::str(std::move(s));
            return true;
        }
        if (c == 't')
            return literal("true", Json::boolean(true), out);
        if (c == 'f')
            return literal("false", Json::boolean(false), out);
        if (c == 'n')
            return literal("null", Json::null(), out);
        return parseNumber(out);
    }

    /** An object (`{` at pos) or array (`[` at pos). */
    bool
    parseContainer(Json &out, bool is_object, int depth)
    {
        const char close = is_object ? '}' : ']';
        ++pos;
        out = is_object ? Json::object() : Json::array();
        skipWs();
        if (pos < text.size() && text[pos] == close) {
            ++pos;
            return true;
        }
        while (true) {
            std::string key;
            if (is_object) {
                if (!parseString(key))
                    return false;
                skipWs();
                if (pos >= text.size() || text[pos] != ':')
                    return fail("expected ':'");
                ++pos;
            }
            Json value;
            if (!parseValue(value, depth))
                return false;
            if (is_object)
                out.set(key, std::move(value));
            else
                out.push(std::move(value));
            skipWs();
            if (pos >= text.size())
                return fail(is_object ? "unterminated object"
                                      : "unterminated array");
            if (text[pos] == ',') {
                ++pos;
                continue;
            }
            if (text[pos] == close) {
                ++pos;
                return true;
            }
            return fail(is_object ? "expected ',' or '}'"
                                  : "expected ',' or ']'");
        }
    }

    bool
    parseString(std::string &out)
    {
        skipWs();
        if (pos >= text.size() || text[pos] != '"')
            return fail("expected string");
        ++pos;
        out.clear();
        while (pos < text.size()) {
            char c = text[pos];
            if (c == '"') {
                ++pos;
                return true;
            }
            if (c == '\\') {
                ++pos;
                if (pos >= text.size())
                    return fail("bad escape");
                char e = text[pos];
                switch (e) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'n': out += '\n'; break;
                  case 't': out += '\t'; break;
                  case 'r': out += '\r'; break;
                  case 'b': out += '\b'; break;
                  case 'f': out += '\f'; break;
                  case 'u': {
                    unsigned code = 0;
                    const char *hex = text.data() + pos + 1;
                    if (pos + 4 >= text.size() ||
                        std::from_chars(hex, hex + 4, code, 16).ptr !=
                            hex + 4)
                        return fail("bad \\u escape");
                    pos += 4;
                    // Encode BMP code points as UTF-8 so round-trips
                    // are lossless.
                    if (code < 0x80) {
                        out += static_cast<char>(code);
                    } else if (code < 0x800) {
                        out += static_cast<char>(0xc0 | (code >> 6));
                        out +=
                            static_cast<char>(0x80 | (code & 0x3f));
                    } else {
                        out += static_cast<char>(0xe0 | (code >> 12));
                        out += static_cast<char>(
                            0x80 | ((code >> 6) & 0x3f));
                        out +=
                            static_cast<char>(0x80 | (code & 0x3f));
                    }
                    break;
                  }
                  default:
                    return fail("bad escape");
                }
                ++pos;
                continue;
            }
            out += c;
            ++pos;
        }
        return fail("unterminated string");
    }

    bool
    parseNumber(Json &out)
    {
        const char *begin = text.data() + pos;
        const char *end = text.data() + text.size();
        int64_t value = 0;
        auto [ptr, ec] = std::from_chars(begin, end, value);
        if (ec == std::errc::invalid_argument)
            return fail("bad number");
        // Reject reals explicitly: readers are integer-only.
        if (ptr != end && (*ptr == '.' || *ptr == 'e' || *ptr == 'E'))
            return fail("non-integer number");
        if (ec == std::errc::result_out_of_range)
            return fail("integer out of range");
        pos += static_cast<size_t>(ptr - begin);
        out = Json::integer(value);
        return true;
    }
};

} // namespace

bool
Json::parse(const std::string &text, Json &out, std::string &error)
{
    Parser p{text, 0, {}};
    if (!p.parseValue(out, 0)) {
        error = p.error;
        return false;
    }
    p.skipWs();
    if (p.pos != text.size()) {
        error = "trailing content at offset " + std::to_string(p.pos);
        return false;
    }
    return true;
}

} // namespace sierra::util

/**
 * @file
 * Minimal strict JSON parser for tests -- enough to validate the
 * trace and `--json` outputs without third-party dependencies.
 */

#ifndef SIERRA_TESTS_STRICT_JSON_HH
#define SIERRA_TESTS_STRICT_JSON_HH

#include <cctype>
#include <cstring>
#include <map>
#include <string>
#include <vector>

namespace sierra::test {

/*
 * Values are returned as a small variant tree; any syntax error --
 * a raw control character inside a string included -- fails the parse
 * (no recovery).
 */
struct JsonValue {
    enum Kind { Null, Bool, Number, String, Array, Object } kind{Null};
    bool boolean{false};
    double number{0};
    std::string string;
    std::vector<JsonValue> array;
    std::map<std::string, JsonValue> object;

    const JsonValue *
    field(const std::string &name) const
    {
        auto it = object.find(name);
        return it == object.end() ? nullptr : &it->second;
    }
    std::string
    str(const std::string &name) const
    {
        const JsonValue *v = field(name);
        return v && v->kind == String ? v->string : "";
    }
};

class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : _text(text) {}

    bool
    parse(JsonValue &out)
    {
        bool ok = value(out);
        skipWs();
        return ok && _pos == _text.size();
    }

  private:
    const std::string &_text;
    size_t _pos{0};

    void
    skipWs()
    {
        while (_pos < _text.size() &&
               std::isspace(static_cast<unsigned char>(_text[_pos])))
            ++_pos;
    }
    bool
    consume(char c)
    {
        skipWs();
        if (_pos >= _text.size() || _text[_pos] != c)
            return false;
        ++_pos;
        return true;
    }
    bool
    literal(const char *word, JsonValue &out, JsonValue::Kind kind,
            bool b)
    {
        size_t n = std::strlen(word);
        if (_text.compare(_pos, n, word) != 0)
            return false;
        _pos += n;
        out.kind = kind;
        out.boolean = b;
        return true;
    }
    bool
    stringValue(std::string &out)
    {
        if (!consume('"'))
            return false;
        out.clear();
        while (_pos < _text.size()) {
            char c = _text[_pos++];
            if (c == '"')
                return true;
            if (c == '\\') {
                if (_pos >= _text.size())
                    return false;
                char e = _text[_pos++];
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
                    if (_pos + 4 > _text.size())
                        return false;
                    // ASCII code points decode exactly; tests need
                    // no others.
                    std::string hex = _text.substr(_pos, 4);
                    if (hex.find_first_not_of("0123456789abcdefABCDEF") !=
                        std::string::npos)
                        return false;
                    unsigned long code = std::stoul(hex, nullptr, 16);
                    out += code < 0x80 ? static_cast<char>(code) : '?';
                    _pos += 4;
                    break;
                  }
                  default: return false;
                }
            } else if (static_cast<unsigned char>(c) < 0x20) {
                return false; // control chars must be escaped
            } else {
                out += c;
            }
        }
        return false;
    }
    bool
    value(JsonValue &out)
    {
        skipWs();
        if (_pos >= _text.size())
            return false;
        char c = _text[_pos];
        if (c == 'n')
            return literal("null", out, JsonValue::Null, false);
        if (c == 't')
            return literal("true", out, JsonValue::Bool, true);
        if (c == 'f')
            return literal("false", out, JsonValue::Bool, false);
        if (c == '"') {
            out.kind = JsonValue::String;
            return stringValue(out.string);
        }
        if (c == '[') {
            ++_pos;
            out.kind = JsonValue::Array;
            skipWs();
            if (consume(']'))
                return true;
            while (true) {
                JsonValue elem;
                if (!value(elem))
                    return false;
                out.array.push_back(std::move(elem));
                if (consume(']'))
                    return true;
                if (!consume(','))
                    return false;
            }
        }
        if (c == '{') {
            ++_pos;
            out.kind = JsonValue::Object;
            skipWs();
            if (consume('}'))
                return true;
            while (true) {
                skipWs();
                std::string key;
                if (!stringValue(key))
                    return false;
                if (!consume(':'))
                    return false;
                JsonValue elem;
                if (!value(elem))
                    return false;
                out.object.emplace(std::move(key), std::move(elem));
                if (consume('}'))
                    return true;
                if (!consume(','))
                    return false;
            }
        }
        // Number.
        size_t start = _pos;
        if (c == '-')
            ++_pos;
        while (_pos < _text.size() &&
               (std::isdigit(static_cast<unsigned char>(_text[_pos])) ||
                _text[_pos] == '.' || _text[_pos] == 'e' ||
                _text[_pos] == 'E' || _text[_pos] == '+' ||
                _text[_pos] == '-'))
            ++_pos;
        if (_pos == start)
            return false;
        try {
            out.number = std::stod(_text.substr(start, _pos - start));
        } catch (...) {
            return false;
        }
        out.kind = JsonValue::Number;
        return true;
    }
};

} // namespace sierra::test

#endif // SIERRA_TESTS_STRICT_JSON_HH

/**
 * @file
 * The one JSON string escaper, shared by every JSON emitter (CLI
 * `--json`, trace writer, metrics toJson, daemon protocol), so a
 * control character in any string always comes out as valid JSON.
 */

#ifndef SIERRA_UTIL_JSON_ESCAPE_HH
#define SIERRA_UTIL_JSON_ESCAPE_HH

#include <string>
#include <string_view>

namespace sierra::util {

/** Append `in` escaped for a JSON string body (no quotes): `"` and `\`
 *  are backslashed, `\n` `\t` `\r` use their short forms and every
 *  other byte below 0x20 becomes `\u00XX`. */
inline void
appendJsonEscaped(std::string &out, std::string_view in)
{
    for (unsigned char c : in) {
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
                out += hex[(c >> 4) & 0xf];
                out += hex[c & 0xf];
            } else {
                out += static_cast<char>(c);
            }
        }
    }
}

/** `in` escaped for a JSON string body (no quotes). */
inline std::string
jsonEscape(std::string_view in)
{
    std::string out;
    out.reserve(in.size());
    appendJsonEscaped(out, in);
    return out;
}

} // namespace sierra::util

#endif // SIERRA_UTIL_JSON_ESCAPE_HH

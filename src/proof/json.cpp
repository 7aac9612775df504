#include "proof/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "util/json_escape.hpp"

namespace trojanscout::proof {

namespace {

struct Parser {
  const char* p;
  const char* end;
  std::string* error;
  int depth = 0;

  bool fail(const std::string& message) {
    if (error != nullptr) *error = "json: " + message;
    return false;
  }

  void skip_ws() {
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r')) {
      ++p;
    }
  }

  bool literal(const char* word) {
    const std::size_t n = std::strlen(word);
    if (static_cast<std::size_t>(end - p) < n || std::memcmp(p, word, n) != 0) {
      return fail("invalid literal");
    }
    p += n;
    return true;
  }

  bool parse_string(std::string& out) {
    ++p;  // opening quote
    while (p < end) {
      const char c = *p++;
      if (c == '"') return true;
      if (c == '\\') {
        if (p >= end) break;
        const char esc = *p++;
        switch (esc) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'u': {
            if (end - p < 4) return fail("truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = *p++;
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return fail("bad \\u escape");
            }
            // UTF-8 encode (no surrogate-pair handling; certificates are
            // ASCII in practice).
            if (code < 0x80) {
              out.push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out.push_back(static_cast<char>(0xC0 | (code >> 6)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              out.push_back(static_cast<char>(0xE0 | (code >> 12)));
              out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default:
            return fail("unknown escape");
        }
      } else {
        out.push_back(c);
      }
    }
    return fail("unterminated string");
  }

  bool parse_number(Json& out) {
    const char* start = p;
    if (p < end && *p == '-') ++p;
    bool is_double = false;
    while (p < end &&
           (std::isdigit(static_cast<unsigned char>(*p)) != 0 || *p == '.' ||
            *p == 'e' || *p == 'E' || *p == '+' || *p == '-')) {
      if (*p == '.' || *p == 'e' || *p == 'E') is_double = true;
      ++p;
    }
    const std::string text(start, p);
    if (text.empty() || text == "-") return fail("bad number");
    if (is_double) {
      out = Json(std::strtod(text.c_str(), nullptr));
    } else {
      out = Json(static_cast<std::int64_t>(
          std::strtoll(text.c_str(), nullptr, 10)));
    }
    return true;
  }

  bool parse_value(Json& out) {
    if (++depth > 200) return fail("nesting too deep");
    skip_ws();
    if (p >= end) return fail("unexpected end of input");
    bool ok = false;
    switch (*p) {
      case '{': {
        ++p;
        out = Json::object();
        skip_ws();
        if (p < end && *p == '}') {
          ++p;
          ok = true;
          break;
        }
        for (;;) {
          skip_ws();
          if (p >= end || *p != '"') return fail("expected object key");
          std::string key;
          if (!parse_string(key)) return false;
          skip_ws();
          if (p >= end || *p != ':') return fail("expected ':'");
          ++p;
          Json value;
          if (!parse_value(value)) return false;
          out.set(std::move(key), std::move(value));
          skip_ws();
          if (p < end && *p == ',') {
            ++p;
            continue;
          }
          if (p < end && *p == '}') {
            ++p;
            ok = true;
            break;
          }
          return fail("expected ',' or '}'");
        }
        break;
      }
      case '[': {
        ++p;
        out = Json::array();
        skip_ws();
        if (p < end && *p == ']') {
          ++p;
          ok = true;
          break;
        }
        for (;;) {
          Json value;
          if (!parse_value(value)) return false;
          out.push_back(std::move(value));
          skip_ws();
          if (p < end && *p == ',') {
            ++p;
            continue;
          }
          if (p < end && *p == ']') {
            ++p;
            ok = true;
            break;
          }
          return fail("expected ',' or ']'");
        }
        break;
      }
      case '"': {
        std::string s;
        if (!parse_string(s)) return false;
        out = Json(std::move(s));
        ok = true;
        break;
      }
      case 't':
        if (!literal("true")) return false;
        out = Json(true);
        ok = true;
        break;
      case 'f':
        if (!literal("false")) return false;
        out = Json(false);
        ok = true;
        break;
      case 'n':
        if (!literal("null")) return false;
        out = Json(nullptr);
        ok = true;
        break;
      default:
        if (!parse_number(out)) return false;
        ok = true;
        break;
    }
    --depth;
    return ok;
  }
};

}  // namespace

void Json::dump_to(std::string& out, int indent, int depth) const {
  const auto newline = [&](int d) {
    if (indent <= 0) return;
    out.push_back('\n');
    out.append(static_cast<std::size_t>(indent * d), ' ');
  };
  switch (type_) {
    case Type::kNull:
      out += "null";
      break;
    case Type::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Type::kInt:
      out += std::to_string(int_);
      break;
    case Type::kDouble: {
      if (std::isfinite(double_)) {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", double_);
        out += buf;
      } else {
        out += "null";  // JSON has no Inf/NaN
      }
      break;
    }
    case Type::kString:
      out.push_back('"');
      util::append_json_escaped(out, string_);
      out.push_back('"');
      break;
    case Type::kArray: {
      out.push_back('[');
      bool first = true;
      for (const Json& item : array_) {
        if (!first) out.push_back(',');
        first = false;
        newline(depth + 1);
        item.dump_to(out, indent, depth + 1);
      }
      if (!array_.empty()) newline(depth);
      out.push_back(']');
      break;
    }
    case Type::kObject: {
      out.push_back('{');
      bool first = true;
      for (const auto& entry : object_) {
        if (!first) out.push_back(',');
        first = false;
        newline(depth + 1);
        out.push_back('"');
        util::append_json_escaped(out, entry.first);
        out.push_back('"');
        out.push_back(':');
        if (indent > 0) out.push_back(' ');
        entry.second.dump_to(out, indent, depth + 1);
      }
      if (!object_.empty()) newline(depth);
      out.push_back('}');
      break;
    }
  }
}

std::string Json::dump() const {
  std::string out;
  dump_to(out, 0, 0);
  return out;
}

std::string Json::dump_pretty() const {
  std::string out;
  dump_to(out, 2, 0);
  out.push_back('\n');
  return out;
}

bool Json::parse(const std::string& text, Json& out, std::string* error) {
  Parser parser{text.data(), text.data() + text.size(), error};
  if (!parser.parse_value(out)) return false;
  parser.skip_ws();
  if (parser.p != parser.end) return parser.fail("trailing content");
  return true;
}

// ---- base64 ---------------------------------------------------------------

namespace {
constexpr char kB64Alphabet[] =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
}  // namespace

std::string base64_encode(const std::uint8_t* data, std::size_t size) {
  std::string out;
  out.reserve((size + 2) / 3 * 4);
  std::size_t i = 0;
  for (; i + 3 <= size; i += 3) {
    const std::uint32_t v = (static_cast<std::uint32_t>(data[i]) << 16) |
                            (static_cast<std::uint32_t>(data[i + 1]) << 8) |
                            data[i + 2];
    out.push_back(kB64Alphabet[(v >> 18) & 63]);
    out.push_back(kB64Alphabet[(v >> 12) & 63]);
    out.push_back(kB64Alphabet[(v >> 6) & 63]);
    out.push_back(kB64Alphabet[v & 63]);
  }
  const std::size_t rem = size - i;
  if (rem == 1) {
    const std::uint32_t v = static_cast<std::uint32_t>(data[i]) << 16;
    out.push_back(kB64Alphabet[(v >> 18) & 63]);
    out.push_back(kB64Alphabet[(v >> 12) & 63]);
    out += "==";
  } else if (rem == 2) {
    const std::uint32_t v = (static_cast<std::uint32_t>(data[i]) << 16) |
                            (static_cast<std::uint32_t>(data[i + 1]) << 8);
    out.push_back(kB64Alphabet[(v >> 18) & 63]);
    out.push_back(kB64Alphabet[(v >> 12) & 63]);
    out.push_back(kB64Alphabet[(v >> 6) & 63]);
    out.push_back('=');
  }
  return out;
}

bool base64_decode(const std::string& text, std::vector<std::uint8_t>& out) {
  out.clear();
  int table[256];
  for (int& t : table) t = -1;
  for (int i = 0; i < 64; ++i) {
    table[static_cast<unsigned char>(kB64Alphabet[i])] = i;
  }
  std::uint32_t acc = 0;
  int bits = 0;
  std::size_t padding = 0;
  std::size_t symbols = 0;  // alphabet characters plus padding
  for (const char c : text) {
    if (c == '\n' || c == '\r') continue;
    if (c == '=') {
      padding++;
      symbols++;
      continue;
    }
    if (padding > 0) return false;  // data after padding
    const int v = table[static_cast<unsigned char>(c)];
    if (v < 0) return false;
    acc = (acc << 6) | static_cast<std::uint32_t>(v);
    bits += 6;
    symbols++;
    if (bits >= 8) {
      bits -= 8;
      out.push_back(static_cast<std::uint8_t>((acc >> bits) & 0xFF));
    }
  }
  if (padding > 2) return false;
  // RFC 4648: encoded data comes in padded 4-symbol groups, and the
  // leftover bits of the final group must be zero (reject non-canonical
  // encodings — a certificate field has exactly one valid spelling).
  if (symbols % 4 != 0) return false;
  if (bits > 0 && (acc & ((1u << bits) - 1)) != 0) return false;
  return true;
}

}  // namespace trojanscout::proof

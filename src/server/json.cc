#include "server/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace multilog::server {

namespace {

constexpr size_t kMaxDepth = 64;

void AppendEscaped(const std::string& s, std::string* out) {
  out->push_back('"');
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\b':
        *out += "\\b";
        break;
      case '\f':
        *out += "\\f";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(static_cast<char>(c));
        }
    }
  }
  out->push_back('"');
}

void SerializeTo(const Json& j, std::string* out) {
  switch (j.kind()) {
    case Json::Kind::kNull:
      *out += "null";
      return;
    case Json::Kind::kBool:
      *out += j.bool_value() ? "true" : "false";
      return;
    case Json::Kind::kInt:
      *out += std::to_string(j.int_value());
      return;
    case Json::Kind::kDouble: {
      const double d = j.number_value();
      if (!std::isfinite(d)) {  // JSON has no Inf/NaN
        *out += "null";
        return;
      }
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", d);
      *out += buf;
      return;
    }
    case Json::Kind::kString:
      AppendEscaped(j.string_value(), out);
      return;
    case Json::Kind::kArray: {
      out->push_back('[');
      bool first = true;
      for (const Json& item : j.array_items()) {
        if (!first) out->push_back(',');
        first = false;
        SerializeTo(item, out);
      }
      out->push_back(']');
      return;
    }
    case Json::Kind::kObject: {
      out->push_back('{');
      bool first = true;
      for (const auto& [key, value] : j.object_items()) {
        if (!first) out->push_back(',');
        first = false;
        AppendEscaped(key, out);
        out->push_back(':');
        SerializeTo(value, out);
      }
      out->push_back('}');
      return;
    }
  }
}

/// Recursive-descent parser over a string_view with explicit position.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Json> ParseDocument() {
    MULTILOG_ASSIGN_OR_RETURN(Json value, ParseValue(0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Status::ParseError("trailing characters after JSON value at " +
                                Where());
    }
    return value;
  }

 private:
  std::string Where() const { return "offset " + std::to_string(pos_); }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Result<Json> ParseValue(size_t depth) {
    if (depth > kMaxDepth) {
      return Status::ParseError("JSON nesting deeper than " +
                                std::to_string(kMaxDepth));
    }
    SkipWhitespace();
    if (pos_ >= text_.size()) {
      return Status::ParseError("unexpected end of JSON input");
    }
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(depth);
      case '[':
        return ParseArray(depth);
      case '"':
        return ParseStringValue();
      case 't':
        return ParseKeyword("true", Json::Bool(true));
      case 'f':
        return ParseKeyword("false", Json::Bool(false));
      case 'n':
        return ParseKeyword("null", Json::Null());
      default:
        if (c == '-' || (c >= '0' && c <= '9')) return ParseNumber();
        // Render unprintable bytes as hex: this message travels back to
        // the peer inside a JSON string and must itself stay valid
        // UTF-8.
        char what[16];
        if (c >= 0x20 && c < 0x7F) {
          std::snprintf(what, sizeof(what), "'%c'", c);
        } else {
          std::snprintf(what, sizeof(what), "byte 0x%02x",
                        static_cast<unsigned char>(c));
        }
        return Status::ParseError(std::string("unexpected ") + what + " at " +
                                  Where());
    }
  }

  Result<Json> ParseKeyword(std::string_view word, Json value) {
    if (text_.substr(pos_, word.size()) != word) {
      return Status::ParseError("malformed keyword at " + Where());
    }
    pos_ += word.size();
    return value;
  }

  size_t ConsumeDigits() {
    size_t digits = 0;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
      ++digits;
    }
    return digits;
  }

  Result<Json> ParseNumber() {
    const size_t start = pos_;
    Consume('-');
    // Strict JSON integer part: "0" alone, or nonzero-leading digits
    // (no "01").
    if (!Consume('0') && ConsumeDigits() == 0) {
      return Status::ParseError("malformed number at " + Where());
    }
    bool integral = true;
    if (Consume('.')) {
      integral = false;
      if (ConsumeDigits() == 0) {
        return Status::ParseError("digit required after '.' at " + Where());
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (ConsumeDigits() == 0) {
        return Status::ParseError("digit required in exponent at " + Where());
      }
    }
    const std::string token(text_.substr(start, pos_ - start));
    errno = 0;
    if (integral) {
      char* end = nullptr;
      const long long v = std::strtoll(token.c_str(), &end, 10);
      if (errno == 0 && end == token.c_str() + token.size()) {
        return Json::Int(v);
      }
      // Out of int64 range: fall through to double.
    }
    char* end = nullptr;
    errno = 0;
    const double d = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || errno == ERANGE) {
      return Status::ParseError("malformed number '" + token + "'");
    }
    return Json::Double(d);
  }

  /// Appends `cp` UTF-8 encoded; the code point is already validated.
  static void AppendCodePoint(uint32_t cp, std::string* out) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  Result<uint32_t> ParseHex4() {
    if (pos_ + 4 > text_.size()) {
      return Status::ParseError("truncated \\u escape at " + Where());
    }
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + static_cast<size_t>(i)];
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Status::ParseError("bad \\u escape at " + Where());
      }
    }
    pos_ += 4;
    return v;
  }

  Result<std::string> ParseString() {
    if (!Consume('"')) {
      return Status::ParseError("expected '\"' at " + Where());
    }
    const size_t body_start = pos_;
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) {
        return Status::ParseError("unterminated string at " + Where());
      }
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        break;
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) {
          return Status::ParseError("unterminated escape at " + Where());
        }
        const char e = text_[pos_++];
        switch (e) {
          case '"':
            out.push_back('"');
            break;
          case '\\':
            out.push_back('\\');
            break;
          case '/':
            out.push_back('/');
            break;
          case 'b':
            out.push_back('\b');
            break;
          case 'f':
            out.push_back('\f');
            break;
          case 'n':
            out.push_back('\n');
            break;
          case 'r':
            out.push_back('\r');
            break;
          case 't':
            out.push_back('\t');
            break;
          case 'u': {
            MULTILOG_ASSIGN_OR_RETURN(uint32_t cp, ParseHex4());
            if (cp >= 0xD800 && cp <= 0xDBFF) {
              // High surrogate: require the low half.
              if (!Consume('\\') || !Consume('u')) {
                return Status::ParseError("unpaired surrogate at " + Where());
              }
              MULTILOG_ASSIGN_OR_RETURN(uint32_t low, ParseHex4());
              if (low < 0xDC00 || low > 0xDFFF) {
                return Status::ParseError("unpaired surrogate at " + Where());
              }
              cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
            } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
              return Status::ParseError("unpaired surrogate at " + Where());
            }
            AppendCodePoint(cp, &out);
            break;
          }
          default:
            return Status::ParseError("unknown escape at " + Where());
        }
        continue;
      }
      if (c < 0x20) {
        return Status::ParseError("unescaped control character at " +
                                  Where());
      }
      out.push_back(static_cast<char>(c));
      ++pos_;
    }
    // Raw (non-escape) bytes must form valid UTF-8. Checking the source
    // slice keeps the scan linear; escapes were validated above and
    // AppendCodePoint only emits well-formed sequences.
    if (!IsValidUtf8(text_.substr(body_start, pos_ - 1 - body_start))) {
      return Status::ParseError("string is not valid UTF-8");
    }
    return out;
  }

  Result<Json> ParseStringValue() {
    MULTILOG_ASSIGN_OR_RETURN(std::string s, ParseString());
    return Json::Str(std::move(s));
  }

  Result<Json> ParseArray(size_t depth) {
    Consume('[');
    Json arr = Json::Array();
    SkipWhitespace();
    if (Consume(']')) return arr;
    while (true) {
      MULTILOG_ASSIGN_OR_RETURN(Json item, ParseValue(depth + 1));
      arr.Push(std::move(item));
      SkipWhitespace();
      if (Consume(']')) return arr;
      if (!Consume(',')) {
        return Status::ParseError("expected ',' or ']' at " + Where());
      }
    }
  }

  Result<Json> ParseObject(size_t depth) {
    Consume('{');
    Json obj = Json::Object();
    SkipWhitespace();
    if (Consume('}')) return obj;
    while (true) {
      SkipWhitespace();
      MULTILOG_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipWhitespace();
      if (!Consume(':')) {
        return Status::ParseError("expected ':' at " + Where());
      }
      MULTILOG_ASSIGN_OR_RETURN(Json value, ParseValue(depth + 1));
      obj.Set(key, std::move(value));
      SkipWhitespace();
      if (Consume('}')) return obj;
      if (!Consume(',')) {
        return Status::ParseError("expected ',' or '}' at " + Where());
      }
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

bool IsValidUtf8(std::string_view bytes) {
  size_t i = 0;
  const size_t n = bytes.size();
  while (i < n) {
    const unsigned char c = static_cast<unsigned char>(bytes[i]);
    size_t len;
    uint32_t cp;
    if (c < 0x80) {
      ++i;
      continue;
    } else if ((c & 0xE0) == 0xC0) {
      len = 2;
      cp = c & 0x1Fu;
    } else if ((c & 0xF0) == 0xE0) {
      len = 3;
      cp = c & 0x0Fu;
    } else if ((c & 0xF8) == 0xF0) {
      len = 4;
      cp = c & 0x07u;
    } else {
      return false;  // bare continuation byte or 0xFE/0xFF
    }
    if (i + len > n) return false;
    for (size_t k = 1; k < len; ++k) {
      const unsigned char cc = static_cast<unsigned char>(bytes[i + k]);
      if ((cc & 0xC0) != 0x80) return false;
      cp = (cp << 6) | (cc & 0x3Fu);
    }
    // Overlong encodings, surrogates, and out-of-range code points.
    if ((len == 2 && cp < 0x80) || (len == 3 && cp < 0x800) ||
        (len == 4 && cp < 0x10000) || cp > 0x10FFFF ||
        (cp >= 0xD800 && cp <= 0xDFFF)) {
      return false;
    }
    i += len;
  }
  return true;
}

void Json::Set(const std::string& key, Json value) {
  for (auto& [k, v] : members_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  members_.emplace_back(key, std::move(value));
}

void Json::Erase(const std::string& key) {
  std::erase_if(members_, [&key](const auto& m) { return m.first == key; });
}

const Json* Json::Find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string Json::GetString(const std::string& key,
                            const std::string& fallback) const {
  const Json* v = Find(key);
  return (v != nullptr && v->is_string()) ? v->string_value() : fallback;
}

int64_t Json::GetInt(const std::string& key, int64_t fallback) const {
  const Json* v = Find(key);
  return (v != nullptr && v->is_int()) ? v->int_value() : fallback;
}

bool Json::GetBool(const std::string& key, bool fallback) const {
  const Json* v = Find(key);
  return (v != nullptr && v->is_bool()) ? v->bool_value() : fallback;
}

std::string Json::Serialize() const {
  std::string out;
  SerializeTo(*this, &out);
  return out;
}

Result<Json> Json::Parse(std::string_view text) {
  return Parser(text).ParseDocument();
}

}  // namespace multilog::server

#include "obs/json.h"

#include <cctype>
#include <cmath>
#include <cstdlib>

#include "common/string_util.h"

namespace xdbft::obs {

std::string JsonQuote(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out.push_back(static_cast<char>(c));
        }
    }
  }
  out.push_back('"');
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  // Round-trippable and compact; integers render without exponent.
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    return StrFormat("%.0f", v);
  }
  return StrFormat("%.17g", v);
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  const auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

const JsonValue* JsonValue::FindPath(const std::string& dotted_path) const {
  const JsonValue* cur = this;
  size_t start = 0;
  while (cur != nullptr && start <= dotted_path.size()) {
    const size_t dot = dotted_path.find('.', start);
    const std::string key =
        dotted_path.substr(start, dot == std::string::npos ? std::string::npos
                                                           : dot - start);
    cur = cur->Find(key);
    if (dot == std::string::npos) break;
    start = dot + 1;
  }
  return cur;
}

namespace {

// Deepest nesting of arrays and objects ParseJson accepts. The parser
// recurses once per level, so an unbounded depth lets a hostile document
// (a reproducer file the user names) overflow the stack.
constexpr int kMaxJsonDepth = 256;

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Result<JsonValue> Parse() {
    XDBFT_ASSIGN_OR_RETURN(JsonValue v, ParseValue());
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after document");
    }
    return v;
  }

 private:
  Status Error(const std::string& what) const {
    return Status::InvalidArgument(
        StrFormat("JSON parse error at offset %zu: %s", pos_, what.c_str()));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
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

  Result<JsonValue> ParseValue() {
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{' || c == '[') {
      if (depth_ == kMaxJsonDepth) {
        return Error(
            StrFormat("nesting deeper than %d levels", kMaxJsonDepth));
      }
      ++depth_;
      Result<JsonValue> v = c == '{' ? ParseObject() : ParseArray();
      --depth_;
      return v;
    }
    switch (c) {
      case '"':
        return ParseString();
      case 't':
      case 'f':
        return ParseBool();
      case 'n':
        return ParseNull();
      default:
        return ParseNumber();
    }
  }

  Result<JsonValue> ParseObject() {
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    SkipWhitespace();
    if (Consume('}')) return v;
    while (true) {
      SkipWhitespace();
      XDBFT_ASSIGN_OR_RETURN(JsonValue key, ParseString());
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':' in object");
      XDBFT_ASSIGN_OR_RETURN(JsonValue member, ParseValue());
      v.object.emplace(std::move(key.string_value), std::move(member));
      SkipWhitespace();
      if (Consume('}')) return v;
      if (!Consume(',')) return Error("expected ',' or '}' in object");
    }
  }

  Result<JsonValue> ParseArray() {
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    SkipWhitespace();
    if (Consume(']')) return v;
    while (true) {
      XDBFT_ASSIGN_OR_RETURN(JsonValue elem, ParseValue());
      v.array.push_back(std::move(elem));
      SkipWhitespace();
      if (Consume(']')) return v;
      if (!Consume(',')) return Error("expected ',' or ']' in array");
    }
  }

  Result<JsonValue> ParseString() {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return Error("expected string");
    }
    ++pos_;
    JsonValue v;
    v.kind = JsonValue::Kind::kString;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return v;
      if (c != '\\') {
        v.string_value.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return Error("truncated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"':
          v.string_value.push_back('"');
          break;
        case '\\':
          v.string_value.push_back('\\');
          break;
        case '/':
          v.string_value.push_back('/');
          break;
        case 'b':
          v.string_value.push_back('\b');
          break;
        case 'f':
          v.string_value.push_back('\f');
          break;
        case 'n':
          v.string_value.push_back('\n');
          break;
        case 'r':
          v.string_value.push_back('\r');
          break;
        case 't':
          v.string_value.push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Error("invalid \\u escape");
            }
          }
          // Basic-multilingual-plane only; encode as UTF-8.
          if (code < 0x80) {
            v.string_value.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            v.string_value.push_back(static_cast<char>(0xC0 | (code >> 6)));
            v.string_value.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            v.string_value.push_back(static_cast<char>(0xE0 | (code >> 12)));
            v.string_value.push_back(
                static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            v.string_value.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Error("invalid escape");
      }
    }
    return Error("unterminated string");
  }

  Result<JsonValue> ParseBool() {
    JsonValue v;
    v.kind = JsonValue::Kind::kBool;
    if (text_.compare(pos_, 4, "true") == 0) {
      v.bool_value = true;
      pos_ += 4;
      return v;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      v.bool_value = false;
      pos_ += 5;
      return v;
    }
    return Error("invalid literal");
  }

  Result<JsonValue> ParseNull() {
    if (text_.compare(pos_, 4, "null") != 0) return Error("invalid literal");
    pos_ += 4;
    return JsonValue{};
  }

  Result<JsonValue> ParseNumber() {
    const size_t start = pos_;
    if (Consume('-')) {
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Error("expected value");
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double parsed = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') return Error("invalid number");
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.number_value = parsed;
    return v;
  }

  const std::string& text_;
  size_t pos_ = 0;
  int depth_ = 0;  // open arrays and objects around pos_
};

}  // namespace

Result<JsonValue> ParseJson(const std::string& text) {
  return Parser(text).Parse();
}

}  // namespace xdbft::obs

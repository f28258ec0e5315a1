// Minimal JSON reader shared by the tools (tools/bench_compare's baseline
// diffing, tools/ppsle_run's sweep-matrix mode).
//
// Supports objects, arrays, strings, numbers, booleans and null — enough
// for the flat schema analysis/bench_report.h emits and for scenario-matrix
// files. Writing stays with BenchRecord/BenchReport; this header only reads.
// Hostile input is a parse failure, never a crash or a silent misread:
// nesting deeper than kMaxDepth fails instead of exhausting the stack, and
// a number must convert as one whole token ("8-1" is not 8).
#pragma once

#include <cctype>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

namespace ppsim {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool b = false;
  double num = 0.0;
  std::string str;
  std::vector<JsonValue> items;
  std::vector<std::pair<std::string, JsonValue>> fields;

  const JsonValue* get(const std::string& key) const {
    for (const auto& [k, v] : fields)
      if (k == key) return &v;
    return nullptr;
  }

  bool is_string() const { return kind == Kind::kString; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_object() const { return kind == Kind::kObject; }
};

class JsonParser {
 public:
  // Arrays and objects nested deeper than this fail to parse: the descent
  // is recursive, and the files read here nest three or four levels.
  static constexpr int kMaxDepth = 256;

  explicit JsonParser(const std::string& text) : s_(text) {}

  bool parse(JsonValue& out) {
    skip_ws();
    if (!parse_value(out)) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }

  bool parse_value(JsonValue& out) {
    skip_ws();
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{' || c == '[') {
      if (depth_ == kMaxDepth) return false;
      ++depth_;
      const bool ok = c == '{' ? parse_object(out) : parse_array(out);
      --depth_;
      return ok;
    }
    if (c == '"') {
      out.kind = JsonValue::Kind::kString;
      return parse_string(out.str);
    }
    if (c == 't' || c == 'f') {
      const bool is_true = c == 't';
      const char* word = is_true ? "true" : "false";
      const std::size_t len = is_true ? 4 : 5;
      if (s_.compare(pos_, len, word) != 0) return false;
      pos_ += len;
      out.kind = JsonValue::Kind::kBool;
      out.b = is_true;
      return true;
    }
    if (c == 'n') {
      if (s_.compare(pos_, 4, "null") != 0) return false;
      pos_ += 4;
      out.kind = JsonValue::Kind::kNull;
      return true;
    }
    return parse_number(out);
  }

  bool parse_string(std::string& out) {
    if (s_[pos_] != '"') return false;
    ++pos_;
    out.clear();
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) return false;
      const char esc = s_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        case 'r': out.push_back('\r'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'u': {
          if (pos_ + 4 > s_.size()) return false;
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= h - '0';
            else if (h >= 'a' && h <= 'f') code |= h - 'a' + 10;
            else if (h >= 'A' && h <= 'F') code |= h - 'A' + 10;
            else return false;
          }
          // BenchRecord only writes \u00XX control escapes; encode as-is.
          out.push_back(static_cast<char>(code & 0xff));
          break;
        }
        default: return false;
      }
    }
    return false;
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            std::strchr("+-.eE", s_[pos_]) != nullptr))
      ++pos_;
    if (pos_ == start) return false;
    const std::string token = s_.substr(start, pos_ - start);
    std::size_t used = 0;
    try {
      out.num = std::stod(token, &used);
    } catch (...) {
      return false;
    }
    if (used != token.size()) return false;  // "8-1", "1.2.3", "1e"
    out.kind = JsonValue::Kind::kNumber;
    return true;
  }

  bool parse_array(JsonValue& out) {
    out.kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      JsonValue item;
      if (!parse_value(item)) return false;
      out.items.push_back(std::move(item));
      skip_ws();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool parse_object(JsonValue& out) {
    out.kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      std::string key;
      if (pos_ >= s_.size() || !parse_string(key)) return false;
      skip_ws();
      if (pos_ >= s_.size() || s_[pos_] != ':') return false;
      ++pos_;
      JsonValue value;
      if (!parse_value(value)) return false;
      out.fields.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace ppsim

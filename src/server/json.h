#ifndef MULTILOG_SERVER_JSON_H_
#define MULTILOG_SERVER_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"

namespace multilog::server {

/// A minimal JSON value for the wire protocol: null, bool, int64,
/// double, string, array, object. Self-contained (the container image
/// ships no JSON library) and deliberately strict:
///
///  - Parse accepts exactly one value plus trailing whitespace;
///  - strings must be valid UTF-8 (overlong encodings, stray
///    surrogates, and bare continuation bytes are ParseError - the
///    robustness corpus feeds the server raw garbage);
///  - nesting depth is capped (stack safety against "[[[[...");
///  - objects preserve insertion order, so serialization is
///    deterministic and responses are byte-stable across runs.
class Json {
 public:
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  Json() : kind_(Kind::kNull) {}

  static Json Null() { return Json(); }
  static Json Bool(bool b) {
    Json j;
    j.kind_ = Kind::kBool;
    j.bool_ = b;
    return j;
  }
  static Json Int(int64_t i) {
    Json j;
    j.kind_ = Kind::kInt;
    j.int_ = i;
    return j;
  }
  static Json Double(double d) {
    Json j;
    j.kind_ = Kind::kDouble;
    j.double_ = d;
    return j;
  }
  static Json Str(std::string s) {
    Json j;
    j.kind_ = Kind::kString;
    j.string_ = std::move(s);
    return j;
  }
  static Json Array() {
    Json j;
    j.kind_ = Kind::kArray;
    return j;
  }
  static Json Object() {
    Json j;
    j.kind_ = Kind::kObject;
    return j;
  }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_int() const { return kind_ == Kind::kInt; }
  bool is_number() const {
    return kind_ == Kind::kInt || kind_ == Kind::kDouble;
  }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Accessors require the matching kind (asserted in debug builds);
  /// use the kind predicates first on untrusted values.
  bool bool_value() const { return bool_; }
  int64_t int_value() const { return int_; }
  /// Numeric value as double (works for both kInt and kDouble).
  double number_value() const {
    return kind_ == Kind::kInt ? static_cast<double>(int_) : double_;
  }
  const std::string& string_value() const { return string_; }
  const std::vector<Json>& array_items() const { return items_; }
  const std::vector<std::pair<std::string, Json>>& object_items() const {
    return members_;
  }

  /// Appends to an array.
  void Push(Json value) { items_.push_back(std::move(value)); }

  /// Sets a key on an object (replaces an existing key in place).
  void Set(const std::string& key, Json value);

  /// Removes a key from an object; a no-op when absent.
  void Erase(const std::string& key);

  /// Object member lookup; nullptr when absent or not an object.
  const Json* Find(const std::string& key) const;

  /// Typed lookup helpers for request parsing: value of the member when
  /// present and of the right kind, `fallback` when absent entirely,
  /// error Status via the out-param pattern is avoided - callers that
  /// must distinguish wrong-type use Find directly.
  std::string GetString(const std::string& key,
                        const std::string& fallback = "") const;
  int64_t GetInt(const std::string& key, int64_t fallback = 0) const;
  bool GetBool(const std::string& key, bool fallback = false) const;

  /// Compact, deterministic serialization (no added whitespace).
  std::string Serialize() const;

  /// Strict parse; see the class comment for what is rejected.
  static Result<Json> Parse(std::string_view text);

 private:
  Kind kind_;
  bool bool_ = false;
  int64_t int_ = 0;
  double double_ = 0;
  std::string string_;
  std::vector<Json> items_;
  std::vector<std::pair<std::string, Json>> members_;
};

/// True when `bytes` is well-formed UTF-8 (rejects overlong encodings,
/// surrogate code points, and values above U+10FFFF). Exposed for the
/// framing layer, which validates payloads before parsing.
bool IsValidUtf8(std::string_view bytes);

}  // namespace multilog::server

#endif  // MULTILOG_SERVER_JSON_H_

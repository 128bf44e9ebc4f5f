#ifndef MLLIBSTAR_COMMON_JSON_H_
#define MLLIBSTAR_COMMON_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace mllibstar {

/// A JSON document: null, bool, number, string, array, or object.
/// Objects preserve insertion order so exported reports are stable and
/// diffable. This is the one JSON codepath shared by every exporter
/// (Chrome traces, RunReports, bench reports) and by the tests that
/// parse those exports back to validate them.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Default-constructs null (so `JsonValue v; v.Set(...)` is invalid
  /// until given a kind via the factories below).
  JsonValue() = default;

  static JsonValue Null() { return JsonValue(); }
  static JsonValue Bool(bool b);
  static JsonValue Number(double v);
  /// Integer counters stay exact through the double representation up
  /// to 2^53; byte counts and step counts in this codebase fit easily.
  static JsonValue Number(uint64_t v);
  static JsonValue Number(int64_t v);
  static JsonValue Str(std::string s);
  static JsonValue Array();
  static JsonValue Object();

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }

  /// Typed accessors; the value must hold the matching kind (checked).
  bool bool_value() const;
  double number_value() const;
  const std::string& string_value() const;

  // Array operations.
  void Append(JsonValue value);
  size_t size() const;
  const JsonValue& at(size_t index) const;

  // Object operations (insertion-ordered; Set overwrites in place).
  void Set(const std::string& key, JsonValue value);
  /// Pointer to the member value, or nullptr when absent / not an
  /// object.
  const JsonValue* Find(const std::string& key) const;
  bool Has(const std::string& key) const { return Find(key) != nullptr; }
  const std::vector<std::pair<std::string, JsonValue>>& items() const;

  /// Serializes the document. `indent` == 0 emits one compact line;
  /// positive values pretty-print with that many spaces per level.
  std::string Dump(int indent = 0) const;

  /// Parses a complete JSON document (trailing garbage is an error).
  static Result<JsonValue> Parse(std::string_view text);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

/// Escapes `text` for embedding inside a JSON string literal (without
/// the surrounding quotes).
std::string JsonEscape(std::string_view text);

}  // namespace mllibstar

#endif  // MLLIBSTAR_COMMON_JSON_H_

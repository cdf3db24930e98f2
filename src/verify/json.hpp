// Minimal JSON value for the verification subsystem: golden files, lint
// reports, metrics snapshots and traces, and the schema-stable benchmark
// output.
//
// Design constraints that rule out an off-the-shelf library:
//   * objects keep their members in a std::map, so serialization is
//     key-sorted by construction — two dumps of semantically equal values
//     are textually identical and diff cleanly;
//   * numbers serialize through a canonical shortest-round-trip format
//     (try %.15g, fall back to %.17g when the parse-back differs), so a
//     load/dump cycle is a fixed point and goldens never churn.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <variant>
#include <vector>

namespace sfc::verify {

class Json;

using JsonArray = std::vector<Json>;
using JsonObject = std::map<std::string, Json>;

class Json {
 public:
  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(double d) : value_(d) {}
  Json(int i) : value_(static_cast<double>(i)) {}
  Json(long l) : value_(static_cast<double>(l)) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(JsonArray a) : value_(std::move(a)) {}
  Json(JsonObject o) : value_(std::move(o)) {}

  static Json object() { return Json(JsonObject{}); }
  static Json array() { return Json(JsonArray{}); }
  /// Numeric array convenience (golden value vectors).
  static Json array_of(const std::vector<double>& values);
  static Json array_of(const std::vector<std::string>& values);

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(value_); }
  bool is_bool() const { return std::holds_alternative<bool>(value_); }
  bool is_number() const { return std::holds_alternative<double>(value_); }
  bool is_string() const { return std::holds_alternative<std::string>(value_); }
  bool is_array() const { return std::holds_alternative<JsonArray>(value_); }
  bool is_object() const { return std::holds_alternative<JsonObject>(value_); }

  bool as_bool() const { return std::get<bool>(value_); }
  double as_number() const { return std::get<double>(value_); }
  const std::string& as_string() const { return std::get<std::string>(value_); }
  const JsonArray& as_array() const { return std::get<JsonArray>(value_); }
  JsonArray& as_array() { return std::get<JsonArray>(value_); }
  const JsonObject& as_object() const { return std::get<JsonObject>(value_); }
  JsonObject& as_object() { return std::get<JsonObject>(value_); }

  /// Object member access. `set` inserts or overwrites; `get` throws
  /// std::runtime_error when the key is absent (goldens treat a missing
  /// quantity as a hard schema error, not a default).
  Json& set(const std::string& key, Json value);
  const Json& get(const std::string& key) const;
  bool has(const std::string& key) const;

  /// Typed getters with a path-context error message.
  double number_at(const std::string& key) const;
  const std::string& string_at(const std::string& key) const;
  std::vector<double> numbers_at(const std::string& key) const;
  std::vector<std::string> strings_at(const std::string& key) const;

  /// Serialize. `indent` = 0 emits a single line; > 0 pretty-prints with
  /// that many spaces per level. Object keys always come out sorted.
  std::string dump(int indent = 2) const;

  /// Parse a complete JSON document; throws std::runtime_error with a
  /// byte-offset message on malformed input or trailing garbage.
  static Json parse(const std::string& text);

  /// Canonical number rendering used by dump() (exposed for tests and for
  /// code that wants identical formatting outside a Json value).
  static std::string format_number(double v);

  bool operator==(const Json& other) const { return value_ == other.value_; }

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  std::variant<std::nullptr_t, bool, double, std::string, JsonArray,
               JsonObject>
      value_;
};

/// File helpers. `read_json_file` throws on I/O or parse errors;
/// `write_json_file` writes dump(2) plus a trailing newline atomically
/// enough for our purposes (temp file + rename is overkill here).
Json read_json_file(const std::string& path);
void write_json_file(const std::string& path, const Json& value);

}  // namespace sfc::verify

// Minimal JSON value tree — writer and parser, no external deps.
//
// The observability layer (RunManifest, the JSONL packet traces and the
// trace_inspect tool) needs a deterministic JSON representation:
// object keys keep insertion order, integers stay exact 64-bit, and
// doubles are formatted with a fixed "%.17g" so the same run always
// produces byte-identical text — the property the metrics-determinism
// tests assert.  This is intentionally a small subset of a full JSON
// library: enough for flat-to-moderately-nested machine-written files.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace hwatch::sim {

class Json {
 public:
  enum class Type : std::uint8_t {
    kNull = 0,
    kBool,
    kUint,    // non-negative integer, exact
    kInt,     // negative integer, exact
    kDouble,
    kString,
    kArray,
    kObject,
  };

  Json() = default;
  Json(bool b) : type_(Type::kBool), bool_(b) {}
  Json(double d) : type_(Type::kDouble), dbl_(d) {}
  Json(const char* s) : type_(Type::kString), str_(s) {}
  Json(std::string s) : type_(Type::kString), str_(std::move(s)) {}
  template <typename T,
            std::enable_if_t<std::is_integral_v<T> && !std::is_same_v<T, bool>,
                             int> = 0>
  Json(T v) {
    if constexpr (std::is_signed_v<T>) {
      if (v < 0) {
        type_ = Type::kInt;
        int_ = static_cast<std::int64_t>(v);
        return;
      }
    }
    type_ = Type::kUint;
    uint_ = static_cast<std::uint64_t>(v);
  }

  static Json object() {
    Json j;
    j.type_ = Type::kObject;
    return j;
  }
  static Json array() {
    Json j;
    j.type_ = Type::kArray;
    return j;
  }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_object() const { return type_ == Type::kObject; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_number() const {
    return type_ == Type::kUint || type_ == Type::kInt ||
           type_ == Type::kDouble;
  }

  bool as_bool() const { return bool_; }
  std::uint64_t as_uint() const;
  std::int64_t as_int() const;
  double as_double() const;
  const std::string& as_string() const { return str_; }

  // ---- array ----
  std::size_t size() const {
    return type_ == Type::kArray ? arr_.size() : obj_.size();
  }
  Json& push_back(Json v) {
    arr_.push_back(std::move(v));
    return arr_.back();
  }
  const Json& at(std::size_t i) const { return arr_[i]; }
  const std::vector<Json>& items() const { return arr_; }

  // ---- object (insertion-ordered) ----
  /// Appends or replaces; returns the stored value.
  Json& set(std::string key, Json v);
  /// nullptr when absent.
  const Json* find(std::string_view key) const;
  const std::vector<std::pair<std::string, Json>>& members() const {
    return obj_;
  }

  /// Serializes.  indent < 0: compact one-line; indent >= 0: pretty with
  /// `indent` spaces per level.  Key order is insertion order, doubles
  /// are "%.17g" — deterministic output for deterministic trees.
  void dump(std::ostream& os, int indent = -1, int depth = 0) const;
  std::string dump(int indent = -1) const;

  /// Arrays and objects nest at most this deep in a parsed document.
  static constexpr std::size_t kMaxParseDepth = 256;

  /// Parses `text`; returns a kNull Json and fills *error on failure.
  /// A document nested deeper than kMaxParseDepth fails with "nesting
  /// deeper than 256 at offset N" rather than exhausting the stack.
  static Json parse(std::string_view text, std::string* error = nullptr);

  /// Writes a JSON string literal (quotes + escapes) for `s`.
  static void write_escaped(std::ostream& os, std::string_view s);

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  std::uint64_t uint_ = 0;
  std::int64_t int_ = 0;
  double dbl_ = 0;
  std::string str_;
  std::vector<Json> arr_;
  std::vector<std::pair<std::string, Json>> obj_;
};

}  // namespace hwatch::sim

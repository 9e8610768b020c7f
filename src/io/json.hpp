// Tiny JSON value type: emitter plus a strict recursive-descent parser,
// hardened for the wire (the kgdd newline-delimited JSON protocol):
// depth-limited, control characters must be escaped, numbers outside the
// finite double range are rejected, and errors carry the byte offset.
// No external dependency.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace kgdp::io {

// Version of the machine-readable export schemas (the `schema_version`
// field on `kgd_cli json` output, certificate headers, campaign
// telemetry events, and every kgdd wire frame). Bump when any of those
// surfaces changes shape. History: v2 added solver-counter surfaces;
// v3 added the kgdd `route` method and the request-side
// `schema_version` field; v4 added the fleet `lease`/`lease.release`
// methods and the `stats` fleet block; v5 added the elastic-membership
// `fleet.join`/`fleet.leave` methods, the durable-coordinator grant
// params (`generation`, `refenced`), and their `stats` fleet counters;
// v6 added `bench_name`/`machine` metadata to BENCH_*.json records, the
// solver `kernel` block in `stats`/telemetry, and the `mt` thread-sweep
// rows in BENCH_verify.json; v7 removed the batch-kernel fields again
// (`solver_kernel_*` in telemetry and `verify --json`, the `stats`
// solver `kernel` block, `kernel_*` in BENCH_verify.json rows and
// `machine.isa_features`) once a single portable kernel remained.
// Readers stay backward compatible: artifact loaders and the daemon
// accept any version in [1, kSchemaVersion].
inline constexpr int kSchemaVersion = 7;

// Thrown by Json::parse on malformed input; `offset` is the byte
// position the parser rejected.
class JsonParseError : public std::runtime_error {
 public:
  JsonParseError(const std::string& what, std::size_t offset)
      : std::runtime_error(what + " at byte " + std::to_string(offset)),
        offset_(offset) {}
  std::size_t offset() const { return offset_; }

 private:
  std::size_t offset_;
};

class Json;
using JsonArray = std::vector<Json>;
using JsonObject = std::map<std::string, Json>;

class Json {
 public:
  enum class Type { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  Json() : v_(nullptr) {}
  Json(std::nullptr_t) : v_(nullptr) {}
  Json(bool b) : v_(b) {}
  Json(int i) : v_(static_cast<std::int64_t>(i)) {}
  Json(std::int64_t i) : v_(i) {}
  Json(std::uint64_t u) : v_(static_cast<std::int64_t>(u)) {}
  Json(double d) : v_(d) {}
  Json(const char* s) : v_(std::string(s)) {}
  Json(std::string s) : v_(std::move(s)) {}
  Json(JsonArray a) : v_(std::move(a)) {}
  Json(JsonObject o) : v_(std::move(o)) {}

  std::string dump(int indent = 0) const;

  // Strict parse of a complete JSON document: trailing garbage, raw
  // control characters inside strings, invalid escapes, lone surrogates,
  // leading zeros, and nesting deeper than `max_depth` all throw
  // JsonParseError. Integers that fit int64 parse as kInt; any other
  // number parses as a finite double (out-of-range magnitudes throw).
  static Json parse(std::string_view text, int max_depth = 64);

  Type type() const { return static_cast<Type>(v_.index()); }
  bool is_null() const { return type() == Type::kNull; }
  bool is_bool() const { return type() == Type::kBool; }
  bool is_int() const { return type() == Type::kInt; }
  bool is_double() const { return type() == Type::kDouble; }
  bool is_number() const { return is_int() || is_double(); }
  bool is_string() const { return type() == Type::kString; }
  bool is_array() const { return type() == Type::kArray; }
  bool is_object() const { return type() == Type::kObject; }

  // Typed accessors; throw std::runtime_error on a type mismatch.
  bool as_bool() const;
  std::int64_t as_int() const;       // kInt only
  double as_double() const;          // kInt or kDouble
  const std::string& as_string() const;
  const JsonArray& as_array() const;
  const JsonObject& as_object() const;

  // Object field lookup; nullptr when this is not an object or the key
  // is absent. The pointer is invalidated by mutation of this value.
  const Json* find(const std::string& key) const;

 private:
  void dump_to(std::string& out, int indent, int depth) const;
  std::variant<std::nullptr_t, bool, std::int64_t, double, std::string,
               JsonArray, JsonObject>
      v_;
};

}  // namespace kgdp::io

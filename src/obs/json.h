#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace elephant {
namespace obs {

/// Minimal streaming JSON writer. Produces compact, valid JSON with correct
/// string escaping; used for EXPLAIN ANALYZE ToJson(), the stat-statements
/// and heatmap exports, and the bench telemetry sink. Commas are inserted
/// automatically.
///
///   JsonWriter w;
///   w.BeginObject().Key("rows").UInt(12).Key("op").String("Scan").EndObject();
///   std::string out = std::move(w).str();
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();

  /// Emits an object key; must be followed by exactly one value.
  JsonWriter& Key(std::string_view name);

  JsonWriter& String(std::string_view v);
  JsonWriter& Int(int64_t v);
  JsonWriter& UInt(uint64_t v);
  JsonWriter& Double(double v);
  JsonWriter& Bool(bool v);
  JsonWriter& Null();

  const std::string& str() const& { return out_; }
  std::string str() && { return std::move(out_); }

  /// Escapes `v` per RFC 8259 (quotes, backslash, control characters).
  static std::string Escape(std::string_view v);

 private:
  void BeforeValue();

  std::string out_;
  /// Per open container: true once the first element has been written.
  std::vector<bool> has_element_;
  bool after_key_ = false;
};

/// Strict RFC 8259 well-formedness check over a complete document. On
/// failure returns false and, when `error` is non-null, describes the first
/// problem with its byte offset. Used by tests and the bench telemetry sink
/// to prove exported documents (traces, metrics, heatmaps) parse before they
/// are handed to external tools.
bool ValidateJson(std::string_view doc, std::string* error = nullptr);

}  // namespace obs
}  // namespace elephant

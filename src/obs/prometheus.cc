#include "obs/prometheus.h"

#include <charconv>

namespace elephant {
namespace obs {

namespace {

/// A label value with `\`, `"` and newline escaped, as the text format
/// requires.
void AppendEscaped(const std::string& s, std::string* out) {
  for (char c : s) {
    if (c == '\\' || c == '"') {
      *out += '\\';
      *out += c;
    } else if (c == '\n') {
      *out += "\\n";
    } else {
      *out += c;
    }
  }
}

/// Integers exactly; doubles in their shortest round-trip form.
void AppendNumber(const Value& v, std::string* out) {
  if (v.type() != TypeId::kDouble && v.type() != TypeId::kDecimal) {
    *out += std::to_string(v.AsInt64());
    return;
  }
  char buf[32];
  char* end = std::to_chars(buf, buf + sizeof(buf), v.AsDouble()).ptr;
  out->append(buf, end - buf);
}

}  // namespace

void AppendPrometheusTable(std::string_view table, const Schema& schema,
                           const std::vector<Row>& rows, std::string* out) {
  if (rows.empty()) return;
  // Each row's label set, rendered once and shared by its samples.
  std::vector<std::string> labels(rows.size());
  for (size_t r = 0; r < rows.size(); r++) {
    for (size_t c = 0; c < schema.NumColumns(); c++) {
      if (schema.ColumnAt(c).type != TypeId::kVarchar) continue;
      labels[r] += labels[r].empty() ? "{" : ",";
      labels[r] += schema.ColumnAt(c).name + "=\"";
      AppendEscaped(rows[r][c].AsString(), &labels[r]);
      labels[r] += '"';
    }
    if (!labels[r].empty()) labels[r] += '}';
  }
  for (size_t c = 0; c < schema.NumColumns(); c++) {
    if (!IsNumeric(schema.ColumnAt(c).type)) continue;
    const std::string family =
        std::string(table) + "_" + schema.ColumnAt(c).name;
    *out += "# TYPE " + family + " gauge\n";
    for (size_t r = 0; r < rows.size(); r++) {
      *out += family + labels[r] + " ";
      AppendNumber(rows[r][c], out);
      *out += '\n';
    }
  }
}

}  // namespace obs
}  // namespace elephant

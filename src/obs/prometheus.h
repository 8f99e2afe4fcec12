#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/schema.h"

namespace elephant {
namespace obs {

/// Appends one introspection table to a Prometheus text exposition (version
/// 0.0.4): every numeric column becomes the gauge family `<table>_<column>`
/// with one sample per row, labeled by the row's VARCHAR cells (column name
/// = label name, values escaped per the text format); a table with no rows
/// contributes nothing. Cells must be non-NULL. This is the engine's
/// one Prometheus renderer: Database::ExportMetrics() calls it once per
/// exported `elephant_stat_*` table.
void AppendPrometheusTable(std::string_view table, const Schema& schema,
                           const std::vector<Row>& rows, std::string* out);

}  // namespace obs
}  // namespace elephant

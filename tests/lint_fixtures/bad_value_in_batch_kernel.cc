// Fixture: a batch kernel that builds a Value per row must be flagged.
#include <vector>

namespace elephant {

int CountBelow(const std::vector<Value>& column, const Value& bound) {  // finding
  int n = 0;
  for (const Value& v : column) {
    if (v.Compare(bound) < 0) n++;  // finding
  }
  return n;
}

// A kernel that reads a typed column back as Values, one per row.
int CountNonNull(const ColumnVector& column) {
  int n = 0;
  for (uint32_t r = 0; r < column.size(); ++r) {
    if (!column.GetValue(r).is_null()) n++;  // finding
  }
  return n;
}

}  // namespace elephant

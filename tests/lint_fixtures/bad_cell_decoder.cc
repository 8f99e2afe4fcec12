// Fixture: a module outside catalog/ and common/ that decodes stored cells
// itself, beside IndexCursor, must be flagged.
#include <string>

namespace elephant {

int64_t FirstInt(const Schema& schema, std::string_view tuple) {
  if (tuple::IsNull(tuple.data(), 0)) return 0;  // finding
  return tuple::GetInt(schema, tuple.data(), 0);  // finding
}

std::string_view Bookmark(std::string_view entry_value) {
  return DecodeSecondaryValue(entry_value).clustered_key;  // finding
}

Status FirstKeyCell(std::string_view key, keycodec::KeyCell* out) {
  size_t pos = 0;
  return keycodec::DecodeCell(TypeId::kInt32, key, &pos, out);  // finding
}

}  // namespace elephant

#include "spans.h"

#include <fstream>

#include "obs/json.h"

namespace perfbench {

uint64_t SpanRecorder::Add(std::string name, uint64_t parent,
                           uint64_t trace_id, double start_s, double end_s) {
  if (!enabled_) return 0;
  Span span;
  span.id = ++next_id_;
  span.parent = parent;
  span.trace_id = trace_id;
  span.name = std::move(name);
  span.start_s = start_s;
  span.end_s = end_s;
  spans_.push_back(std::move(span));
  return next_id_;
}

bool SpanRecorder::WriteJsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  for (const Span& s : spans_) {
    elephant::obs::JsonWriter w;
    w.BeginObject();
    w.Key("id").UInt(s.id);
    w.Key("parent").UInt(s.parent);
    w.Key("trace_id").UInt(s.trace_id);
    w.Key("name").String(s.name);
    w.Key("start_s").Double(s.start_s);
    w.Key("end_s").Double(s.end_s);
    w.EndObject();
    out << w.str() << '\n';
  }
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace perfbench

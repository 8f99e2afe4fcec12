// Fixture: a module that writes its own Prometheus exposition beside the
// table renderer in obs/prometheus.cc must be flagged.
#include <string>

namespace elephant {

std::string ExportQueueDepth(size_t depth) {
  std::string out = "# TYPE elephant_queue_depth gauge\n";  // finding
  out += "elephant_queue_depth " + std::to_string(depth) + "\n";
  return out;
}

}  // namespace elephant

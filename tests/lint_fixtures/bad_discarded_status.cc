// Fixture for the discarded-status rule: a `(void)` cast that launders a
// [[nodiscard]] Status away with no justification. -Werror=unused-result
// stops a bare discard, so the cast is the only way to drop a failure, and
// each one must carry a lint:allow(discarded-status) reason.
#include "common/status.h"

namespace elephant {

Status FlushEverything();

void Shutdown() {
  (void)FlushEverything();  // finding: the flush failure vanishes
}

}  // namespace elephant

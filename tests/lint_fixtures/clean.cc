// Fixture: idiomatic engine code — the linter must stay silent.
#include <functional>
#include <memory>
#include <string>

#include "common/thread_annotations.h"
#include "storage/buffer_pool.h"

namespace elephant {

constexpr int kFanout = 64;           // const global: fine
const std::string kName = "elephant"; // const global: fine

class Cache {
 public:
  Status Warm(BufferPool* pool, page_id_t pid) {
    ELE_ASSIGN_OR_RETURN(PageGuard guard, pool->FetchPageGuarded(pid));
    MutexLock lock(mu_);
    last_byte_ = guard.data()[0];
    return Status::OK();
  }

  std::unique_ptr<Cache> Clone() {
    // Immediately-owned allocation: fine.
    return std::unique_ptr<Cache>(new Cache());
  }

 private:
  mutable Mutex mu_;
  char last_byte_ GUARDED_BY(mu_) = 0;
};

// A pre-existing raw call kept alive deliberately, with its contract:
void LegacyTouch(BufferPool* pool, page_id_t pid) {
  // lint:allow(raw-page-api): exercising the escape hatch in the self-test
  pool->UnpinPage(pid, false);
}

// Declarations spelled with (void), and a justified discard: fine.
Status Probe(void);
using Callback = std::function<void(void)>;
void BestEffortProbe() {
  (void)Probe();  // lint:allow(discarded-status): advisory, failure is benign
}

}  // namespace elephant

#include "storage/disk_manager.h"

#include <cstring>

#include "obs/heatmap.h"
#include "obs/trace_log.h"
#include "obs/wait_events.h"
#include "storage/fault_injection.h"

namespace elephant {

namespace {
thread_local IoSink* t_current_sink = nullptr;
}  // namespace

IoSink* CurrentIoSink() { return t_current_sink; }

IoScope::IoScope(IoSink* sink) : prev_(t_current_sink) { t_current_sink = sink; }

IoScope::~IoScope() { t_current_sink = prev_; }

page_id_t DiskManager::AllocatePage() {
  auto page = std::make_unique<char[]>(kPageSize);
  std::memset(page.get(), 0, kPageSize);
  MutexLock lock(mu_);
  pages_.push_back(std::move(page));
  return static_cast<page_id_t>(pages_.size() - 1);
}

void DiskManager::MaybeExtendWindow(StreamPos* s, uint64_t* windows_issued,
                                    uint64_t* pages_prefetched) {
  if (!readahead_enabled_) return;
  if (s->buffered_until < s->last_page) s->buffered_until = s->last_page;
  const page_id_t staged_ahead = s->buffered_until - s->last_page;
  if (staged_ahead >= static_cast<page_id_t>(readahead_pages_ / 2) &&
      staged_ahead > 0) {
    return;  // more than half a window still staged; no transfer yet
  }
  const page_id_t extent_end = static_cast<page_id_t>(pages_.size()) - 1;
  page_id_t want = s->last_page + static_cast<page_id_t>(readahead_pages_);
  if (want > extent_end) want = extent_end;
  if (want <= s->buffered_until) return;  // at the end of the extent
  *windows_issued += 1;
  *pages_prefetched += static_cast<uint64_t>(want - s->buffered_until);
  s->buffered_until = want;
}

Status DiskManager::ReadPage(page_id_t page_id, char* dest,
                             AccessIntent intent) {
  // Opened before the device mutex on purpose: queueing on the (serialized)
  // drive is part of the I/O wait — iowait semantics — so the contended
  // LWLock:DiskManager event rarely fires and the whole operation counts
  // once under IO.
  obs::WaitScope wait(obs::WaitEventId::kIoDataFileRead);
  bool sequential;
  bool prefetch_hit = false;
  ReadaheadStats ra_delta;
  {
    MutexLock lock(mu_);
    if (page_id < 0 || static_cast<size_t>(page_id) >= pages_.size()) {
      return Status::OutOfRange("read of unallocated page " +
                                std::to_string(page_id));
    }
    if (injector_ != nullptr && !injector_->OnPageRead()) {
      return Status::IoError("injected read fault on page " +
                             std::to_string(page_id));
    }
    clock_++;
    int hit = -1;
    int lru = 0;
    for (int i = 0; i < kReadStreams; i++) {
      // A stream continues when the new page extends it (same page counts
      // too: a re-read the cache dropped but the drive buffer still holds),
      // or when the page is anywhere inside the stream's staged prefetch
      // window — forward skips over staged pages stay on-stream.
      if (page_id == streams_[i].last_page + 1 ||
          page_id == streams_[i].last_page ||
          (page_id > streams_[i].last_page &&
           page_id <= streams_[i].buffered_until)) {
        hit = i;
        break;
      }
      if (streams_[i].last_used < streams_[lru].last_used) lru = i;
    }
    sequential = hit >= 0;
    if (sequential) {
      StreamPos& s = streams_[hit];
      if (page_id > s.last_page && page_id <= s.buffered_until) {
        // Served from the prefetch window; staged pages the stream skipped
        // over were transferred for nothing.
        prefetch_hit = true;
        ra_delta.prefetch_hits++;
        ra_delta.prefetch_wasted +=
            static_cast<uint64_t>(page_id - s.last_page - 1);
      }
      stats_.sequential_reads++;
      s.last_page = page_id;
      s.last_used = clock_;
      MaybeExtendWindow(&s, &ra_delta.windows_issued,
                        &ra_delta.pages_prefetched);
    } else {
      stats_.random_reads++;
      StreamPos& s = streams_[lru];
      // Whatever the recycled stream had staged will never be consumed.
      if (s.buffered_until > s.last_page) {
        ra_delta.prefetch_wasted +=
            static_cast<uint64_t>(s.buffered_until - s.last_page);
      }
      s.last_page = page_id;
      s.buffered_until = page_id;
      s.last_used = clock_;
      if (intent == AccessIntent::kSequentialScan) {
        // The plan says a scan starts here: stage the window right away so
        // the next demanded pages stream from the drive buffer.
        MaybeExtendWindow(&s, &ra_delta.windows_issued,
                          &ra_delta.pages_prefetched);
      }
    }
    stats_.readahead.windows_issued += ra_delta.windows_issued;
    stats_.readahead.pages_prefetched += ra_delta.pages_prefetched;
    stats_.readahead.prefetch_hits += ra_delta.prefetch_hits;
    stats_.readahead.prefetch_wasted += ra_delta.prefetch_wasted;
    // Inside the critical section so the per-object heatmap totals track the
    // global counters exactly at every instant (test-enforced equality).
    if (heatmap_ != nullptr) {
      heatmap_->RecordRead(obs::CurrentAccessLabel(), sequential, prefetch_hit);
    }
    std::memcpy(dest, pages_[page_id].get(), kPageSize);
  }
  if (!sequential && obs::TraceLog::Global().enabled()) {
    obs::TraceLog::Global().Instant(
        "disk.seek", "io",
        {{"page", std::to_string(page_id)},
         {"object", obs::CurrentAccessLabel()}});
  }
  if (IoSink* sink = CurrentIoSink()) {
    // Attribute with the classification the (serialized) drive chose.
    if (sequential) {
      sink->sequential_reads.fetch_add(1, std::memory_order_relaxed);
    } else {
      sink->random_reads.fetch_add(1, std::memory_order_relaxed);
    }
    if (ra_delta.windows_issued != 0) {
      sink->readahead_windows.fetch_add(ra_delta.windows_issued,
                                        std::memory_order_relaxed);
    }
    if (ra_delta.pages_prefetched != 0) {
      sink->pages_prefetched.fetch_add(ra_delta.pages_prefetched,
                                       std::memory_order_relaxed);
    }
    if (ra_delta.prefetch_hits != 0) {
      sink->prefetch_hits.fetch_add(ra_delta.prefetch_hits,
                                    std::memory_order_relaxed);
    }
    if (ra_delta.prefetch_wasted != 0) {
      sink->prefetch_wasted.fetch_add(ra_delta.prefetch_wasted,
                                      std::memory_order_relaxed);
    }
  }
  return Status::OK();
}

Status DiskManager::WritePage(page_id_t page_id, const char* src) {
  obs::WaitScope wait(obs::WaitEventId::kIoDataFileWrite);
  {
    MutexLock lock(mu_);
    if (page_id < 0 || static_cast<size_t>(page_id) >= pages_.size()) {
      return Status::OutOfRange("write of unallocated page " +
                                std::to_string(page_id));
    }
    if (injector_ != nullptr && !injector_->OnPageWrite()) {
      return Status::IoError("simulated crash: page write " +
                             std::to_string(page_id) + " dropped");
    }
    stats_.page_writes++;
    if (heatmap_ != nullptr) {
      heatmap_->RecordWrite(obs::CurrentAccessLabel());
    }
    // Writes go straight to the backing store; a staged prefetch window over
    // the written page stays coherent because the window is bookkeeping only
    // (reads always copy from pages_).
    std::memcpy(pages_[page_id].get(), src, kPageSize);
  }
  if (IoSink* sink = CurrentIoSink()) {
    sink->page_writes.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::OK();
}

Status DiskManager::Sync(const std::source_location& caller) {
  lock_rank::AssertMayBlock("DiskManager::Sync", caller);
  // Inert when the caller is a WAL group flush (kWalFlush is already
  // timing); standalone syncs (checkpoints) count as IO.
  obs::WaitScope wait(obs::WaitEventId::kIoDataFileSync);
  MutexLock lock(mu_);
  stats_.fsyncs++;
  if (injector_ != nullptr && !injector_->OnSync()) {
    return Status::IoError("simulated crash: fsync dropped");
  }
  return Status::OK();
}

std::vector<std::string> DiskManager::ClonePages() const {
  MutexLock lock(mu_);
  std::vector<std::string> out;
  out.reserve(pages_.size());
  for (const auto& p : pages_) out.emplace_back(p.get(), kPageSize);
  return out;
}

Status DiskManager::RestorePages(const std::vector<std::string>& pages) {
  MutexLock lock(mu_);
  if (!pages_.empty()) {
    return Status::FailedPrecondition(
        "RestorePages on a disk that already allocated pages");
  }
  for (const auto& src : pages) {
    auto page = std::make_unique<char[]>(kPageSize);
    std::memset(page.get(), 0, kPageSize);
    std::memcpy(page.get(), src.data(),
                src.size() < kPageSize ? src.size() : kPageSize);
    pages_.push_back(std::move(page));
  }
  return Status::OK();
}

}  // namespace elephant

#include "storage/buffer_pool.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "obs/heatmap.h"
#include "obs/trace_log.h"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace elephant {

namespace {

// Page escape: under ASan an unpinned frame's bytes are poisoned, so any
// access through a released PageGuard (or a Frame* kept past its unpin)
// dies with use-after-poison. The pool unpoisons a frame when it pins it and
// around its own accesses to an unpinned frame (write-back). No-ops in
// other builds.
void PoisonFrame(Frame& f) {
#if defined(__SANITIZE_ADDRESS__)
  ASAN_POISON_MEMORY_REGION(f.data(), kPageSize);
#endif
}

void UnpoisonFrame(Frame& f) {
#if defined(__SANITIZE_ADDRESS__)
  ASAN_UNPOISON_MEMORY_REGION(f.data(), kPageSize);
#endif
}

}  // namespace

BufferPool::BufferPool(DiskManager* disk, uint32_t capacity_pages,
                       obs::AccessHeatmap* heatmap)
    : disk_(disk), capacity_(capacity_pages), heatmap_(heatmap) {
  MutexLock lock(latch_);
  frames_.resize(capacity_);
  free_frames_.reserve(capacity_);
  for (uint32_t i = 0; i < capacity_; i++) {
    frames_[i].data_ = std::make_unique<char[]>(kPageSize);
    PoisonFrame(frames_[i]);
    free_frames_.push_back(capacity_ - 1 - i);  // hand out low indices first
  }
}

void BufferPool::RemoveFromReplacer(size_t frame_idx) {
  auto it = list_pos_.find(frame_idx);
  if (it == list_pos_.end()) return;
  if (frames_[frame_idx].in_scan_ring_) {
    scan_ring_.erase(it->second);
  } else {
    lru_.erase(it->second);
  }
  list_pos_.erase(it);
}

void BufferPool::Touch(size_t frame_idx) {
  RemoveFromReplacer(frame_idx);
  frames_[frame_idx].in_scan_ring_ = false;
  lru_.push_front(frame_idx);
  list_pos_[frame_idx] = lru_.begin();
}

void BufferPool::TouchRing(size_t frame_idx) {
  RemoveFromReplacer(frame_idx);
  frames_[frame_idx].in_scan_ring_ = true;
  scan_ring_.push_front(frame_idx);
  list_pos_[frame_idx] = scan_ring_.begin();
}

Status BufferPool::FlushFrame(size_t i) {
  Frame& f = frames_[i];
  if (f.dirty_ && f.page_id_ != kInvalidPageId) {
    // WAL rule: the log record that last touched this page must be durable
    // before the page image may reach disk. Callers flush the log first,
    // with the latch dropped (FlushLogUnlatched); this is the backstop.
    if (wal_flush_ && f.last_lsn_ > wal_durable_lsn_) {
      return Status::Internal(
          "WAL rule: page " + std::to_string(f.page_id_) + " has LSN " +
          std::to_string(f.last_lsn_) + " past the durable log (" +
          std::to_string(wal_durable_lsn_) + ")");
    }
    UnpoisonFrame(f);
    const Status written = disk_->WritePage(f.page_id_, f.data());
    if (f.pin_count_ == 0) PoisonFrame(f);
    ELE_RETURN_NOT_OK(written);
    f.dirty_ = false;
    f.last_lsn_ = kInvalidLsn;
  }
  return Status::OK();
}

Status BufferPool::FlushLogUnlatched(lsn_t lsn) {
  const std::function<Status(lsn_t)> flush = wal_flush_;
  latch_.Unlock();
  const Status flushed = flush(lsn);
  latch_.Lock();
  if (flushed.ok() && lsn > wal_durable_lsn_) wal_durable_lsn_ = lsn;
  return flushed;
}

Status BufferPool::MakeDirtyFramesDurable() {
  if (!wal_flush_) return Status::OK();
  for (;;) {
    lsn_t needed = kInvalidLsn;
    for (const Frame& f : frames_) {
      if (f.dirty_ && f.last_lsn_ > needed) needed = f.last_lsn_;
    }
    if (needed <= wal_durable_lsn_) return Status::OK();
    // Frames dirtied while the latch was down are caught by the next pass.
    ELE_RETURN_NOT_OK(FlushLogUnlatched(needed));
  }
}

void BufferPool::RecordPageLsn(page_id_t page_id, lsn_t lsn) {
  MutexLock lock(latch_);
  auto it = page_table_.find(page_id);
  if (it == page_table_.end()) return;  // caller bug; tolerated like a bad unpin
  Frame& f = frames_[it->second];
  if (lsn > f.last_lsn_) f.last_lsn_ = lsn;
}

Result<size_t> BufferPool::GetVictimFrame() {
  if (!free_frames_.empty()) {
    size_t idx = free_frames_.back();
    free_frames_.pop_back();
    return idx;
  }
  // The scan ring recycles before the young region ever loses a page: evict
  // its least-recent unpinned frame first, then fall back to the young-LRU
  // tail. With no sequential traffic the ring is empty and this is exactly
  // the old pure-LRU victim scan.
  for (std::list<size_t>* region : {&scan_ring_, &lru_}) {
    for (auto it = region->rbegin(); it != region->rend(); ++it) {
      size_t idx = *it;
      Frame& f = frames_[idx];
      if (f.pin_count_ != 0) continue;
      if (wal_flush_ && f.dirty_ && f.last_lsn_ > wal_durable_lsn_) {
        // Stealing a page whose log is not yet durable: flush the log with
        // the latch dropped, then choose again, since the pool may have
        // changed meanwhile.
        ELE_RETURN_NOT_OK(FlushLogUnlatched(f.last_lsn_));
        return GetVictimFrame();
      }
      ELE_RETURN_NOT_OK(FlushFrame(idx));
      page_table_.erase(f.page_id_);
      region->erase(std::next(it).base());
      list_pos_.erase(idx);
      f.page_id_ = kInvalidPageId;
      f.in_scan_ring_ = false;
      stats_.evictions++;
      return idx;
    }
  }
  return Status::ResourceExhausted("buffer pool: all frames pinned");
}

Frame* BufferPool::PinResident(size_t idx, AccessIntent intent) {
  Frame& f = frames_[idx];
  if (f.pin_count_++ == 0) UnpoisonFrame(f);
  if (f.in_scan_ring_) {
    if (intent == AccessIntent::kPointLookup) {
      // Reuse beyond the scan that brought it in: graduate to the young
      // region so the page competes as a normal hot page.
      stats_.scan_ring_promotions++;
      Touch(idx);
    } else {
      TouchRing(idx);
    }
  } else {
    // Young pages stay young: a scan crossing an already-hot page must not
    // demote it (that would let the scan damage the working set after all).
    Touch(idx);
  }
  return &f;
}

Result<PageGuard> BufferPool::FetchPageGuarded(page_id_t page_id,
                                               AccessIntent intent) {
  ELE_ASSIGN_OR_RETURN(Frame * frame, FetchPage(page_id, intent));
  return PageGuard(this, page_id, frame);
}

Result<PageGuard> BufferPool::NewPageGuarded(page_id_t* page_id,
                                             AccessIntent intent) {
  ELE_ASSIGN_OR_RETURN(Frame * frame, NewPage(page_id, intent));
  return PageGuard(this, *page_id, frame);
}

Result<Frame*> BufferPool::FetchPage(page_id_t page_id, AccessIntent intent) {
  MutexLock lock(latch_);
  auto it = page_table_.find(page_id);
  if (it != page_table_.end()) {
    stats_.hits++;
    if (heatmap_ != nullptr) heatmap_->RecordHit(obs::CurrentAccessLabel());
    if (IoSink* sink = CurrentIoSink()) {
      sink->pool_hits.fetch_add(1, std::memory_order_relaxed);
    }
    return PinResident(it->second, intent);
  }
  stats_.misses++;
  if (heatmap_ != nullptr) heatmap_->RecordFault(obs::CurrentAccessLabel());
  if (IoSink* sink = CurrentIoSink()) {
    sink->pool_misses.fetch_add(1, std::memory_order_relaxed);
  }
  // Span covers victim selection + the servicing disk read; gated so the
  // args vector is only built when tracing is on.
  std::optional<obs::TraceSpan> fault_span;
  if (obs::TraceLog::Global().enabled()) {
    fault_span.emplace("page_fault", "pool",
                       obs::TraceArgs{{"page", std::to_string(page_id)},
                                      {"object", obs::CurrentAccessLabel()}});
  }
  ELE_ASSIGN_OR_RETURN(size_t idx, GetVictimFrame());
  // A steal that flushed the log dropped the latch, and another thread may
  // have read the page in meanwhile: pin its copy and give the frame back.
  if (auto raced = page_table_.find(page_id); raced != page_table_.end()) {
    free_frames_.push_back(idx);
    return PinResident(raced->second, intent);
  }
  Frame& f = frames_[idx];
  // The disk read happens under the latch: simple and correct, and the miss
  // path is rare enough (once per resident page) that it does not bottleneck
  // parallel scans.
  UnpoisonFrame(f);
  ELE_RETURN_NOT_OK(disk_->ReadPage(page_id, f.data(), intent));
  f.page_id_ = page_id;
  f.pin_count_ = 1;
  f.dirty_ = false;
  f.last_lsn_ = kInvalidLsn;
  page_table_[page_id] = idx;
  if (intent == AccessIntent::kSequentialScan) {
    stats_.scan_ring_inserts++;
    TouchRing(idx);
  } else {
    Touch(idx);
  }
  return &f;
}

Result<Frame*> BufferPool::NewPage(page_id_t* page_id, AccessIntent intent) {
  MutexLock lock(latch_);
  *page_id = disk_->AllocatePage();
  ELE_ASSIGN_OR_RETURN(size_t idx, GetVictimFrame());
  Frame& f = frames_[idx];
  UnpoisonFrame(f);
  std::memset(f.data(), 0, kPageSize);
  f.page_id_ = *page_id;
  f.pin_count_ = 1;
  f.dirty_ = true;
  f.last_lsn_ = kInvalidLsn;
  page_table_[*page_id] = idx;
  if (intent == AccessIntent::kSequentialScan) {
    stats_.scan_ring_inserts++;
    TouchRing(idx);
  } else {
    Touch(idx);
  }
  return &f;
}

void BufferPool::UnpinPage(page_id_t page_id, bool dirty) {
  MutexLock lock(latch_);
  auto it = page_table_.find(page_id);
  if (it == page_table_.end()) {
    // A pinned page can never be evicted, so unpinning a non-resident page
    // means the pin was already released (or never taken): a protocol bug.
    stats_.pin_protocol_errors++;
    return;
  }
  Frame& f = frames_[it->second];
  if (f.pin_count_ > 0) {
    if (--f.pin_count_ == 0) PoisonFrame(f);
  } else {
    stats_.pin_protocol_errors++;  // double unpin
  }
  if (dirty) f.dirty_ = true;
}

size_t BufferPool::PinnedFrames() const {
  MutexLock lock(latch_);
  size_t n = 0;
  for (const Frame& f : frames_) {
    if (f.pin_count_ > 0) n++;
  }
  return n;
}

Status BufferPool::CheckNoPinsHeld() const {
  MutexLock lock(latch_);
  std::string leaked;
  for (const Frame& f : frames_) {
    if (f.pin_count_ > 0) {
      if (!leaked.empty()) leaked += ", ";
      leaked += "page " + std::to_string(f.page_id_) + " (pins=" +
                std::to_string(f.pin_count_) + ")";
    }
  }
  if (leaked.empty()) return Status::OK();
  return Status::Internal("pin leak: " + leaked);
}

void BufferPool::AssertNoPinsHeld() const {
  Status s = CheckNoPinsHeld();
  if (!s.ok()) {
    std::fprintf(stderr, "BufferPool::AssertNoPinsHeld failed: %s\n",
                 s.ToString().c_str());
    std::abort();
  }
}

Status BufferPool::FlushAll() {
  MutexLock lock(latch_);
  ELE_RETURN_NOT_OK(MakeDirtyFramesDurable());
  for (size_t i = 0; i < frames_.size(); i++) {
    ELE_RETURN_NOT_OK(FlushFrame(i));
  }
  return Status::OK();
}

Status BufferPool::EvictAll() {
  MutexLock lock(latch_);
  ELE_RETURN_NOT_OK(MakeDirtyFramesDurable());
  for (size_t i = 0; i < frames_.size(); i++) {
    ELE_RETURN_NOT_OK(FlushFrame(i));
  }
  // Drop every unpinned frame even when some are pinned: the pool stays
  // consistent either way, and the caller learns exactly which pages kept
  // their residency.
  std::string pinned;
  for (size_t i = 0; i < frames_.size(); i++) {
    Frame& f = frames_[i];
    if (f.page_id_ == kInvalidPageId) continue;
    if (f.pin_count_ != 0) {
      if (!pinned.empty()) pinned += ", ";
      pinned += "page " + std::to_string(f.page_id_) + " (pins=" +
                std::to_string(f.pin_count_) + ")";
      continue;
    }
    page_table_.erase(f.page_id_);
    RemoveFromReplacer(i);
    f.page_id_ = kInvalidPageId;
    f.in_scan_ring_ = false;
    free_frames_.push_back(i);
  }
  if (!pinned.empty()) {
    return Status::FailedPrecondition("EvictAll left pinned pages resident: " +
                                      pinned);
  }
  return Status::OK();
}

}  // namespace elephant

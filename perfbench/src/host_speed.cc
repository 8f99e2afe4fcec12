#include "host_speed.h"

#include <algorithm>
#include <cstring>

#include "bench.h"

namespace perfbench {

namespace {

constexpr size_t kValues = 4096;
constexpr size_t kSlots = 8192;  // open-addressing table, power of two
constexpr size_t kTextBytes = 16384;
constexpr size_t kRingEntries = size_t{1} << 22;  // 16 MiB of uint32_t
constexpr int kChaseSteps = 2048;
constexpr size_t kStreamWords = size_t{1} << 19;  // 4 MiB of the ring

uint64_t XorShift(uint64_t* x) {
  *x ^= *x << 13;
  *x ^= *x >> 7;
  *x ^= *x << 17;
  return *x;
}

}  // namespace

HostSpeed::HostSpeed()
    : source_(kValues),
      work_(kValues),
      slots_(kSlots),
      text_(kTextBytes),
      ring_(kRingEntries) {
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (uint64_t& v : source_) v = XorShift(&x);
  for (char& c : text_) c = static_cast<char>('a' + XorShift(&x) % 26);
  // One random cycle through the ring, so each step of the chase is a
  // dependent load that usually misses the core's caches.
  std::vector<uint32_t> order(kRingEntries);
  for (size_t i = 0; i < kRingEntries; i++) order[i] = static_cast<uint32_t>(i);
  for (size_t i = kRingEntries - 1; i > 0; i--) {
    std::swap(order[i], order[XorShift(&x) % (i + 1)]);
  }
  for (size_t i = 0; i < kRingEntries; i++) {
    ring_[order[i]] = order[(i + 1) % kRingEntries];
  }
}

void HostSpeed::Sample() {
  const double t0 = NowSeconds();
  uint64_t acc = 0;

  // Branchy comparisons: sort a fixed permutation.
  std::memcpy(work_.data(), source_.data(), kValues * sizeof(uint64_t));
  std::sort(work_.begin(), work_.end());
  acc += work_[kValues / 2];

  // Hash-table inserts and probes with linear probing.
  std::fill(slots_.begin(), slots_.end(), 0);
  for (uint64_t v : source_) {
    size_t i = (v * 0x9e3779b97f4a7c15ull) >> 51;  // 13 bits
    while (slots_[i] != 0) i = (i + 1) & (kSlots - 1);
    slots_[i] = v | 1;
  }
  for (size_t k = 0; k < kValues; k += 2) {
    size_t i = (work_[k] * 0x9e3779b97f4a7c15ull) >> 51;
    while (slots_[i] != 0 && slots_[i] != (work_[k] | 1)) {
      i = (i + 1) & (kSlots - 1);
    }
    acc += slots_[i] != 0;
  }

  // Byte-at-a-time hashing of text, as key encoding and parsing do.
  uint64_t h = 1469598103934665603ull;
  for (char c : text_) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  acc += h;

  // Memory: dependent loads across 16 MiB and a sequential 4 MiB stream.
  uint32_t p = static_cast<uint32_t>(acc % kRingEntries);
  for (int i = 0; i < kChaseSteps; i++) p = ring_[p];
  acc += p;
  const size_t from = (acc >> 8) % (kRingEntries - kStreamWords);
  uint64_t streamed = 0;
  for (size_t i = 0; i < kStreamWords; i++) streamed += ring_[from + i];
  acc += streamed;

  sink_ += acc;  // keeps the work observable
  samples_.push_back(NowSeconds() - t0);
}

double HostSpeed::MedianSeconds() const { return Quantile(samples_, 0.5); }

double HostSpeed::Scale() const {
  return samples_.empty() ? 1.0 : kReferenceSeconds / MedianSeconds();
}

}  // namespace perfbench

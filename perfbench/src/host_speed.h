#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Tracks the speed of the shared host the benchmark runs on.
///
/// On a shared VM the same single-threaded work takes up to ~1.9x longer in
/// one stretch of minutes than in another, which no amount of repetition
/// inside a run can average away. The workloads therefore time a small fixed
/// kernel (a sort, hash-table inserts and probes, byte-wise hashing, a
/// pointer chase over 16 MiB and a 4 MiB sequential read; allocation-free,
/// so the engine's heap state does not leak into it) between their
/// operations, and every measured wall
/// time the benchmark reports is scaled by
/// kReferenceSeconds / (median kernel time of the run): a slower host
/// stretches the kernel and the engine alike and cancels out, while a change
/// in the engine's own cost does not touch the kernel. Modeled disk time is
/// never scaled. The kernel is part of the benchmark and must not change
/// between the runs being compared.
class HostSpeed {
 public:
  /// Median kernel time on the host the benchmark was calibrated on (4-vCPU
  /// KVM guest, Intel Xeon at 2.0-2.1 GHz, g++ 12, RelWithDebInfo).
  static constexpr double kReferenceSeconds = 0.0010;

  HostSpeed();

  /// Runs the kernel once and records its wall time.
  void Sample();

  /// kReferenceSeconds / median sampled kernel time; 1 before any sample.
  double Scale() const;
  double MedianSeconds() const;
  size_t samples() const { return samples_.size(); }

 private:
  std::vector<uint64_t> source_;  ///< fixed pseudo-random values
  std::vector<uint64_t> work_;    ///< sort buffer
  std::vector<uint64_t> slots_;   ///< hash table
  std::vector<char> text_;        ///< bytes to hash
  std::vector<uint32_t> ring_;    ///< a random cycle over 16 MiB
  std::vector<double> samples_;
  uint64_t sink_ = 0;
};

}  // namespace perfbench

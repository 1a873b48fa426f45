// Fixed host-speed reference: a pointer chase through one random cycle over
// 32 MiB, so every step is a dependent load that misses the caches. It
// shares no code with the simulator, so no change to the simulator can move
// it. run.py times it between workload runs. On a shared host, scaling by
// this kernel's time removed more of the drift from the simulator's run
// times than a compute-only kernel did, and a copy of the simulator's kind
// of event loop swung twice as far as the simulator and over-corrected.
//
//   perfbench_reference        # prints "<seconds> <checksum>"
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <utility>
#include <vector>

int main() {
  constexpr std::size_t kSlots = std::size_t{1} << 22;  // 4 Mi x 8 B
  constexpr int kSteps = 2'000'000;

  // Sattolo's shuffle: a single cycle through every slot.
  std::vector<std::uint64_t> next(kSlots);
  for (std::size_t i = 0; i < kSlots; ++i) next[i] = i;
  std::uint64_t x = 88172645463325252ull;
  for (std::size_t i = kSlots - 1; i > 0; --i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::swap(next[i], next[x % i]);
  }

  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t p = 0;
  std::uint64_t acc = 0;
  for (int i = 0; i < kSteps; ++i) {
    p = next[p];
    acc += p;
  }
  const auto t1 = std::chrono::steady_clock::now();
  std::printf("%.9f %llu\n", std::chrono::duration<double>(t1 - t0).count(),
              static_cast<unsigned long long>(acc));
  return 0;
}

// Timing decorator over any group::Group, owned by the benchmark.
//
// Passed as FrameworkConfig::group on the traced he-n16 runs, it counts every
// call that actually executes at the Group interface and the wall seconds
// spent inside it, per operation. Every virtual the protocol reaches is
// forwarded to the wrapped group's own override — dual_exp, exp_g and
// serialize_many included — so the decorated run executes the same kernels
// as the undecorated one, and its outputs (ranks, β, wire bytes) are
// identical. Counts are executed calls, not the naive-profile credits the
// session MetricsRegistry reports for accelerated paths.
//
// Thread safety: each calling thread accumulates into its own tally slot
// (registered once per thread under a mutex), so the fan-out of a
// parallelism-4 run never contends on shared counters.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <type_traits>
#include <vector>

#include "group/group.h"

namespace perfbench {

using ppgr::mpz::Nat;

class TimedGroup final : public ppgr::group::Group {
 public:
  enum Op : std::size_t {
    kExp,
    kDualExp,
    kExpG,
    kMul,
    kInv,
    kSerialize,
    kDeserialize,
    kOps
  };
  static constexpr std::array<const char*, kOps> kOpNames = {
      "exp", "dual_exp", "exp_g", "mul", "inv", "serialize", "deserialize"};

  struct Tally {
    std::array<std::uint64_t, kOps> calls{};
    std::array<double, kOps> seconds{};

    Tally& operator+=(const Tally& o) {
      for (std::size_t i = 0; i < kOps; ++i) {
        calls[i] += o.calls[i];
        seconds[i] += o.seconds[i];
      }
      return *this;
    }
    [[nodiscard]] double busy_seconds() const {
      double s = 0.0;
      for (const double x : seconds) s += x;
      return s;
    }
  };

  /// Does not own `inner`; it must outlive this decorator.
  explicit TimedGroup(const Group& inner) : inner_(inner) {}
  TimedGroup(const TimedGroup&) = delete;
  TimedGroup& operator=(const TimedGroup&) = delete;

  /// Sum over every thread that called into this decorator. Read after the
  /// run has joined its workers.
  [[nodiscard]] Tally totals() const {
    const std::lock_guard<std::mutex> lock(mu_);
    Tally t;
    for (const auto& s : slots_) t += *s;
    return t;
  }

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] const Nat& order() const override { return inner_.order(); }
  [[nodiscard]] std::size_t field_bits() const override {
    return inner_.field_bits();
  }
  [[nodiscard]] ppgr::group::Elem generator() const override {
    return inner_.generator();
  }
  [[nodiscard]] ppgr::group::Elem identity() const override {
    return inner_.identity();
  }
  [[nodiscard]] ppgr::group::Elem mul(const ppgr::group::Elem& x,
                                      const ppgr::group::Elem& y) const override {
    return timed(kMul, 1, [&] { return inner_.mul(x, y); });
  }
  [[nodiscard]] ppgr::group::Elem exp(const ppgr::group::Elem& base,
                                      const Nat& scalar) const override {
    return timed(kExp, 1, [&] { return inner_.exp(base, scalar); });
  }
  [[nodiscard]] ppgr::group::Elem dual_exp(const ppgr::group::Elem& x,
                                           const Nat& ex,
                                           const ppgr::group::Elem& y,
                                           const Nat& ey) const override {
    return timed(kDualExp, 1, [&] { return inner_.dual_exp(x, ex, y, ey); });
  }
  [[nodiscard]] ppgr::group::Elem exp_g(const Nat& scalar) const override {
    return timed(kExpG, 1, [&] { return inner_.exp_g(scalar); });
  }
  [[nodiscard]] ppgr::group::Elem inv(const ppgr::group::Elem& x) const override {
    return timed(kInv, 1, [&] { return inner_.inv(x); });
  }
  [[nodiscard]] bool eq(const ppgr::group::Elem& x,
                        const ppgr::group::Elem& y) const override {
    return inner_.eq(x, y);
  }
  [[nodiscard]] bool is_identity(const ppgr::group::Elem& x) const override {
    return inner_.is_identity(x);
  }
  [[nodiscard]] std::vector<std::uint8_t> serialize(
      const ppgr::group::Elem& x) const override {
    return timed(kSerialize, 1, [&] { return inner_.serialize(x); });
  }
  /// One batched call, counted as xs.size() element serializations.
  [[nodiscard]] std::vector<std::uint8_t> serialize_many(
      std::span<const ppgr::group::Elem> xs) const override {
    return timed(kSerialize, xs.size(),
                 [&] { return inner_.serialize_many(xs); });
  }
  [[nodiscard]] ppgr::group::Elem deserialize(
      std::span<const std::uint8_t> bytes) const override {
    return timed(kDeserialize, 1, [&] { return inner_.deserialize(bytes); });
  }
  [[nodiscard]] std::size_t element_bytes() const override {
    return inner_.element_bytes();
  }

 private:
  template <typename F>
  std::invoke_result_t<F> timed(Op op, std::uint64_t calls, F&& f) const {
    Tally& t = local();
    const auto t0 = std::chrono::steady_clock::now();
    auto out = f();
    t.seconds[op] +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    t.calls[op] += calls;
    return out;
  }

  // The calling thread's slot. The cache is keyed by a process-unique
  // instance id rather than `this`, so a decorator allocated at a dead one's
  // address never inherits its slot.
  Tally& local() const {
    struct Cache {
      std::uint64_t owner = 0;
      Tally* tally = nullptr;
    };
    thread_local Cache cache;
    if (cache.owner != id_) {
      const std::lock_guard<std::mutex> lock(mu_);
      slots_.push_back(std::make_unique<Tally>());
      cache = Cache{id_, slots_.back().get()};
    }
    return *cache.tally;
  }

  static std::uint64_t next_id() {
    static std::atomic<std::uint64_t> counter{0};
    return ++counter;
  }

  const Group& inner_;
  const std::uint64_t id_ = next_id();
  mutable std::mutex mu_;
  mutable std::vector<std::unique_ptr<Tally>> slots_;
};

}  // namespace perfbench

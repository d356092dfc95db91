// Per-session measurement record, seeded instance generation and the
// plaintext correctness oracle shared by every workload.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/framework.h"
#include "core/ss_framework.h"
#include "runtime/metrics.h"
#include "sss/mpc_engine.h"
#include "timed_group.h"

namespace perfbench {

using ppgr::core::AttrVec;
using ppgr::core::ProblemSpec;

/// Steady-clock seconds: the clock the program's spans are stamped with.
[[nodiscard]] inline double now_s() {
  return ppgr::runtime::metrics_now_seconds();
}

/// The paper's Fig. 2(a) instance shape: m=4, t=2, d1=8, d2=6, h=8 (l=35).
[[nodiscard]] inline ProblemSpec fig2a_spec() {
  return ProblemSpec{.m = 4, .t = 2, .d1 = 8, .d2 = 6, .h = 8};
}

/// Purposes of the counter-seeded streams split off the workload seed; every
/// input a workload generates is a pure function of (seed, purpose, index).
enum class Stream : std::uint64_t {
  kInstance = 1,  // attribute / weight vectors of session i
  kProtocol = 2,  // run_framework's Rng for session i
  kSchedule = 3,  // engine-mix: kind permutation of block i
  kFaults = 4,    // engine-mix: fault-plan seed of session i
  kEngine = 5,    // engine-mix: the engine seed
};

[[nodiscard]] ppgr::mpz::ChaChaRng stream(const ppgr::mpz::StreamFamily& family,
                                          Stream purpose, std::uint64_t index);

struct Instance {
  AttrVec v0;
  AttrVec w;
  std::vector<AttrVec> infos;
};

/// Uniform attribute and weight vectors for an n-participant session.
[[nodiscard]] Instance make_instance(const ppgr::mpz::StreamFamily& family,
                                     std::uint64_t index, std::size_t n,
                                     const ProblemSpec& spec);

/// Checks a session's output against core::reference_ranks, the plaintext
/// ranking by gain. Tie-tolerant: β masking orders equal gains either way, so
/// the check is that every strictly higher gain gets a strictly better rank,
/// every rank is in [1, n], and the submitted ids are exactly the ranks <= k.
[[nodiscard]] bool ranks_agree(const ProblemSpec& spec, const Instance& inst,
                               std::size_t k,
                               const std::vector<std::size_t>& ranks,
                               const std::vector<std::size_t>& submitted);

/// A closed [t0, t1] steady-clock interval with a static-lifetime name.
struct Interval {
  const char* name = "";
  double t0 = 0.0;
  double t1 = 0.0;
};

/// Everything the benchmark keeps about one session. The observability
/// fields are filled only when the run had FrameworkConfig::metrics on.
struct SessionRecord {
  std::uint64_t index = 0;
  bool ss = false;
  bool fault_plan = false;  // ran under a (recoverable) fault plan
  bool failed = false;    // exception or typed ProtocolFault
  bool mismatch = false;  // ranks disagree with the oracle
  std::string error;

  Interval session;  // instance generation .. oracle check
  Interval call;     // run_framework, or submit .. take
  double run_s = 0.0;           // execution time reported by the program
  double engine_setup_s = 0.0;  // SessionResult::setup_seconds
  double party_compute_max_s = 0.0;
  std::uint64_t bytes = 0;
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t frames_dropped = 0;
  std::vector<std::size_t> ranks;
  std::vector<ppgr::mpz::Nat> betas;

  ppgr::runtime::OpTally ops;
  std::array<double, ppgr::runtime::kOpCount> op_seconds{};
  double virtual_s = 0.0;
  std::array<double, ppgr::runtime::kPhaseCount> phase_s{};
  double compare_s = 0.0;    // p2.compare step spans
  double shuffle_s = 0.0;    // p2.shuffle step spans
  double serial_s = 0.0;     // step-span time no task span covers
  double task_s = 0.0;       // summed task-span time
  double framework_s = 0.0;  // the framework span
  std::vector<Interval> phases;

  ppgr::sss::MpcCosts sort_costs;
  std::uint64_t parallel_rounds = 0;
  std::size_t comparators = 0;

  bool timed_group = false;
  TimedGroup::Tally group;

  [[nodiscard]] double latency_s() const { return call.t1 - call.t0; }
};

/// Copies the outputs and observability data of one finished run.
void observe(const ppgr::core::FrameworkResult& res, SessionRecord& rec);
void observe(const ppgr::core::SsFrameworkResult& res, SessionRecord& rec);

}  // namespace perfbench

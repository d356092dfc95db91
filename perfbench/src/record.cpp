#include "record.h"

#include <algorithm>
#include <cstring>
#include <utility>

namespace perfbench {

using ppgr::mpz::ChaChaRng;
using ppgr::mpz::StreamFamily;
using ppgr::runtime::CryptoOp;

ChaChaRng stream(const StreamFamily& family, Stream purpose,
                 std::uint64_t index) {
  return family.stream((static_cast<std::uint64_t>(purpose) << 56) | index);
}

Instance make_instance(const StreamFamily& family, std::uint64_t index,
                       std::size_t n, const ProblemSpec& spec) {
  ChaChaRng rng = stream(family, Stream::kInstance, index);
  const auto draw = [&rng](std::size_t len, std::size_t bits) {
    AttrVec v(len);
    for (auto& x : v) x = rng.below_u64(std::uint64_t{1} << bits);
    return v;
  };
  Instance inst;
  inst.v0 = draw(spec.m, spec.d1);
  inst.w = draw(spec.m, spec.d2);
  for (std::size_t j = 0; j < n; ++j) inst.infos.push_back(draw(spec.m, spec.d1));
  return inst;
}

bool ranks_agree(const ProblemSpec& spec, const Instance& inst, std::size_t k,
                 const std::vector<std::size_t>& ranks,
                 const std::vector<std::size_t>& submitted) {
  const std::vector<std::size_t> ref =
      ppgr::core::reference_ranks(spec, inst.v0, inst.w, inst.infos);
  const std::size_t n = ref.size();
  if (ranks.size() != n) return false;
  std::vector<std::size_t> expect_submitted;
  for (std::size_t i = 0; i < n; ++i) {
    if (ranks[i] < 1 || ranks[i] > n) return false;
    for (std::size_t j = 0; j < n; ++j)
      if (ref[i] < ref[j] && ranks[i] >= ranks[j]) return false;
    if (ranks[i] <= k) expect_submitted.push_back(i + 1);
  }
  return submitted == expect_submitted;
}

namespace {

// Total length of the union of [t0, t1] intervals.
double covered(std::vector<std::pair<double, double>> iv) {
  std::sort(iv.begin(), iv.end());
  double total = 0.0;
  double end = -1e300;
  for (const auto& [a, b] : iv) {
    const double from = std::max(a, end);
    if (b > from) total += b - from;
    end = std::max(end, b);
  }
  return total;
}

bool is_task(const char* name) { return std::strncmp(name, "task.", 5) == 0; }

// Folds the program's span stream (framework → phase → step → task) into the
// record's phase intervals and step and task times; per-phase totals come
// from SpanRecorder::phase_wall_seconds. Events arrive properly nested in
// stream order, so one stack of open spans pairs them up.
void read_spans(const ppgr::runtime::SpanRecorder& spans, SessionRecord& rec) {
  struct Open {
    const ppgr::runtime::SpanEvent* begin;
    std::vector<std::pair<double, double>> tasks;  // child task intervals
  };
  std::vector<Open> stack;
  for (const auto& ev : spans.events()) {
    if (ev.begin) {
      stack.push_back(Open{&ev, {}});
      continue;
    }
    if (stack.empty()) continue;
    Open open = std::move(stack.back());
    stack.pop_back();
    const double t0 = open.begin->t_wall;
    const double dur = ev.t_wall - t0;
    if (is_task(ev.name)) {
      rec.task_s += dur;
      if (!stack.empty()) stack.back().tasks.emplace_back(t0, ev.t_wall);
    } else if (ev.depth == 0) {
      rec.framework_s += dur;
    } else if (ev.depth == 1) {
      rec.phases.push_back(Interval{ev.name, t0, ev.t_wall});
    } else if (ev.depth == 2) {
      if (std::strcmp(ev.name, "p2.compare") == 0) rec.compare_s += dur;
      if (std::strcmp(ev.name, "p2.shuffle") == 0) rec.shuffle_s += dur;
      rec.serial_s += dur - covered(std::move(open.tasks));
    }
  }
}

template <typename Result>
void observe_common(const Result& res, SessionRecord& rec) {
  rec.ranks = res.ranks;
  rec.bytes = res.trace.total_bytes();
  rec.rounds = res.trace.rounds();
  rec.messages = res.trace.message_count();
  for (std::size_t p = 1; p < res.compute_seconds.size(); ++p)
    rec.party_compute_max_s =
        std::max(rec.party_compute_max_s, res.compute_seconds[p]);
  if (res.faults.has_value()) {
    rec.retransmits = res.faults->stats.retransmits;
    rec.frames_dropped = res.faults->stats.injected[static_cast<std::size_t>(
        ppgr::net::FaultKind::kDrop)];
  }
  if (res.metrics == nullptr) return;
  rec.ops = res.metrics->totals();
  for (std::size_t op = 0; op < ppgr::runtime::kOpCount; ++op)
    rec.op_seconds[op] =
        res.metrics->histogram(static_cast<CryptoOp>(op)).total_seconds();
  if (res.comm != nullptr) rec.virtual_s = res.comm->virtual_seconds();
  if (res.spans != nullptr) {
    rec.phase_s = res.spans->phase_wall_seconds();
    read_spans(*res.spans, rec);
  }
}

}  // namespace

void observe(const ppgr::core::FrameworkResult& res, SessionRecord& rec) {
  observe_common(res, rec);
  rec.betas = res.betas;
}

void observe(const ppgr::core::SsFrameworkResult& res, SessionRecord& rec) {
  observe_common(res, rec);
  rec.ss = true;
  rec.sort_costs = res.sort_costs;
  rec.parallel_rounds = res.parallel_rounds;
  rec.comparators = res.comparators;
}

}  // namespace perfbench

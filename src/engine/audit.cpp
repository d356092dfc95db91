#include "engine/audit.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <tuple>
#include <utility>

#include "benchcore/model.h"
#include "engine/precompute.h"
#include "group/mock_group.h"

namespace ppgr::engine {

namespace {

using runtime::CryptoOp;
using runtime::Phase;

// Session registries never carry the cache counters, and the accel_*
// diagnostics depend on the group family (EC batches its affine
// normalization; the mock group does not) — every other counter, the
// executed group_* calls including group_dual_exp, is audited.
bool audited_op(std::size_t i) {
  switch (static_cast<CryptoOp>(i)) {
    case CryptoOp::kPrecomputeHit:
    case CryptoOp::kPrecomputeMiss:
    case CryptoOp::kAccelMultiExp:
    case CryptoOp::kAccelMultiExpTerm:
    case CryptoOp::kAccelFixedBaseExp:
    case CryptoOp::kAccelBatchInverse:
      return false;
    default:
      return true;
  }
}

// Private precompute for the reference execution. The pool key is fixed
// (all zero): pool *values* differ from the real session's, but op counts
// and protocol outputs are independent of them by the precompute contract.
class RefSource final : public core::PrecomputeSource {
 public:
  [[nodiscard]] std::shared_ptr<const group::FixedBaseTable> generator_table(
      const group::Group& base) override {
    gen_ = cache_.generator_table(base).table;
    return gen_;
  }
  [[nodiscard]] core::KeyPrecompute key_material(const group::Group& base,
                                                 const group::Elem& joint_key,
                                                 std::size_t pool_size) override {
    auto kt = cache_.key_table(base, joint_key);
    auto zp =
        cache_.zero_pool(base, joint_key, gen_, kt.table, pool_key_, pool_size);
    return core::KeyPrecompute{std::move(kt.table), std::move(zp.pool)};
  }

 private:
  PrecomputeCache cache_;
  std::array<std::uint8_t, 32> pool_key_{};
  std::shared_ptr<const group::FixedBaseTable> gen_;
};

void append_escaped(std::string& out, const std::string& s) {
  out.push_back('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  out.push_back('"');
}

}  // namespace

const char* to_string(AuditCheckKind kind) {
  switch (kind) {
    case AuditCheckKind::kPhaseOps: return "phase_ops";
    case AuditCheckKind::kComm: return "comm";
    case AuditCheckKind::kRounds: return "rounds";
    case AuditCheckKind::kSubmissions: return "submissions";
    case AuditCheckKind::kIncomplete: return "incomplete";
  }
  return "?";
}

const char* AuditReport::verdict() const {
  if (incomplete) return "incomplete";
  return findings.empty() ? "clean" : "drift";
}

std::string AuditReport::to_json() const {
  std::string out;
  out += "{\n  \"schema\": \"ppgr.audit.v1\",\n";
  out += "  \"framework\": \"";
  out += ss ? "ss" : "he";
  out += "\",\n";
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "  \"checkpoints\": %zu,\n  \"checks\": %zu,\n", checkpoints,
                checks);
  out += buf;
  out += "  \"verdict\": \"";
  out += verdict();
  out += "\",\n  \"findings\": [";
  bool first = true;
  for (const AuditFinding& f : findings) {
    out += first ? "\n" : ",\n";
    std::snprintf(buf, sizeof(buf), "    {\"kind\": \"%s\", \"phase\": \"%s\", ",
                  to_string(f.kind), runtime::phase_name(f.phase));
    out += buf;
    out += "\"key\": ";
    append_escaped(out, f.key);
    std::snprintf(buf, sizeof(buf),
                  ", \"expected\": %llu, \"measured\": %llu, \"exact\": %s, ",
                  static_cast<unsigned long long>(f.expected),
                  static_cast<unsigned long long>(f.measured),
                  f.exact ? "true" : "false");
    out += buf;
    out += "\"detail\": ";
    append_escaped(out, f.detail);
    out += "}";
    first = false;
  }
  out += "\n  ]\n}\n";
  return out;
}

ConformanceAuditor::ConformanceAuditor(Config cfg, const core::AttrVec& v0,
                                       const core::AttrVec& w,
                                       const std::vector<core::AttrVec>& infos,
                                       mpz::ChaChaRng rng)
    : cfg_(std::move(cfg)) {
  report_.ss = cfg_.ss;
  if (cfg_.ss) {
    // Closed form: phase 1 runs one secure dot product per participant —
    // one query (participant), one answer (initiator), one unmasking
    // (participant). No group ops, nothing else counted.
    runtime::OpTally& t =
        expected_ops_[static_cast<std::size_t>(Phase::kPhase1)];
    t.v[static_cast<std::size_t>(CryptoOp::kDotprodQuery)] = cfg_.n;
    t.v[static_cast<std::size_t>(CryptoOp::kDotprodAnswer)] = cfg_.n;
    t.v[static_cast<std::size_t>(CryptoOp::kDotprodFinish)] = cfg_.n;
    check_ops_[static_cast<std::size_t>(Phase::kPhase1)] = true;
    return;
  }
  // Differential reference execution: the same instance replayed on a cheap
  // mock group, serially, with mirrored precompute (a source shifts metered
  // exponentiations to multiplications, so the reference must use one too).
  // The determinism invariant makes its deterministic outputs exact
  // predictions for the real session.
  group::MockGroup ref_group{"audit-ref", 32, 61};
  RefSource source;
  core::FrameworkConfig ref;
  ref.spec = cfg_.spec;
  ref.n = cfg_.n;
  ref.k = cfg_.k;
  ref.group = &ref_group;
  ref.dot_field = cfg_.dot_field;
  ref.dot_s = cfg_.dot_s;
  ref.parallelism = 1;
  ref.metrics = true;
  ref.precompute = &source;
  const core::FrameworkResult r = core::run_framework(ref, v0, w, infos, rng);
  for (std::size_t p = 0; p < runtime::kPhaseCount; ++p) {
    expected_ops_[p] = r.metrics->phase_totals(static_cast<Phase>(p));
    check_ops_[p] = true;
  }
  expected_submitted_ = r.submitted_ids;
  check_submitted_ = true;
  // The measured side reports the router's closed-round counter, which the
  // comm registry mirrors (empty rounds preserved) — trace.rounds() would
  // not: it only counts rounds carrying at least one message.
  expected_rounds_ = r.comm->rounds();
  check_rounds_ = true;
}

void ConformanceAuditor::check_count(AuditCheckKind kind, Phase phase,
                                     const std::string& key,
                                     std::uint64_t expected,
                                     std::uint64_t measured,
                                     const std::string& what) {
  ++report_.checks;
  if (expected == measured) return;
  AuditFinding f;
  f.kind = kind;
  f.phase = phase;
  f.key = key;
  f.expected = expected;
  f.measured = measured;
  f.detail = what;
  report_.findings.push_back(std::move(f));
}

void ConformanceAuditor::breadcrumb(Phase phase) {
  if (cfg_.flight != nullptr)
    cfg_.flight->record(runtime::FlightEventKind::kAudit, phase, 0,
                        static_cast<std::uint32_t>(report_.checks),
                        static_cast<std::uint32_t>(report_.findings.size()));
}

void ConformanceAuditor::phase_complete(Phase phase,
                                        const runtime::MetricsRegistry* metrics,
                                        const runtime::CommRegistry* comm) {
  (void)comm;  // byte-exact comm is a whole-run check (run_complete)
  ++report_.checkpoints;
  const auto pi = static_cast<std::size_t>(phase);
  if (metrics != nullptr && pi < runtime::kPhaseCount && check_ops_[pi]) {
    const runtime::OpTally measured = metrics->phase_totals(phase);
    const runtime::OpTally& want = expected_ops_[pi];
    for (std::size_t i = 0; i < runtime::kOpCount; ++i) {
      if (!audited_op(i)) continue;
      if (want.v[i] == 0 && measured.v[i] == 0) continue;
      check_count(AuditCheckKind::kPhaseOps, phase,
                  runtime::op_name(static_cast<CryptoOp>(i)), want.v[i],
                  measured.v[i],
                  std::string("op tally diverges from the reference run in ") +
                      runtime::phase_name(phase));
    }
  }
  breadcrumb(phase);
}

void ConformanceAuditor::run_complete(
    const std::vector<std::size_t>& submitted_ids,
    const runtime::MetricsRegistry* metrics, const runtime::CommRegistry* comm,
    std::size_t rounds) {
  (void)metrics;  // per-phase tallies were checked at the phase boundaries
  ++report_.checkpoints;
  if (check_submitted_) {
    ++report_.checks;
    if (submitted_ids != expected_submitted_) {
      AuditFinding f;
      f.kind = AuditCheckKind::kSubmissions;
      f.phase = Phase::kPhase3;
      f.key = "submitted_ids";
      f.expected = expected_submitted_.size();
      f.measured = submitted_ids.size();
      f.detail = "submitted top-k set diverges from the reference run";
      report_.findings.push_back(std::move(f));
    }
  }
  if (check_rounds_)
    check_count(AuditCheckKind::kRounds, Phase::kPhase3, "rounds",
                expected_rounds_, rounds,
                "transport round count diverges from the reference run");
  // Byte-exact communication check against the closed-form model on the
  // real group. Skipped under a fault plan: CRC framing, retransmits and
  // drops legitimately change wire bytes there (divergence then surfaces
  // through the op / submission / incompleteness checks instead).
  if (comm != nullptr && !cfg_.fault_plan && cfg_.group != nullptr &&
      cfg_.dot_field != nullptr) {
    const std::vector<runtime::CommLink> expected = benchcore::model_he_comm(
        cfg_.spec, cfg_.n, *cfg_.group, *cfg_.dot_field, cfg_.dot_s,
        submitted_ids);
    const std::vector<runtime::CommLink> measured = comm->links();
    const auto audited_phase = [&](Phase p) {
      // The SS baseline shares the HE wire codecs in phases 1 and 3 only;
      // its phase-2 traffic is the sort's own synthetic model.
      return !cfg_.ss || p == Phase::kPhase1 || p == Phase::kPhase3;
    };
    using Key = std::tuple<std::size_t, std::size_t, std::size_t>;
    std::map<Key, std::pair<std::uint64_t, std::uint64_t>> want;
    std::map<Key, std::pair<std::uint64_t, std::uint64_t>> got;
    for (const runtime::CommLink& l : expected)
      if (audited_phase(l.phase))
        want[{static_cast<std::size_t>(l.phase), l.src, l.dst}] = {l.messages,
                                                                   l.bytes};
    for (const runtime::CommLink& l : measured)
      if (audited_phase(l.phase))
        got[{static_cast<std::size_t>(l.phase), l.src, l.dst}] = {l.messages,
                                                                  l.bytes};
    auto keys = want;
    for (const auto& [k, v] : got) keys.emplace(k, v);  // union of links
    for (const auto& [k, unused] : keys) {
      (void)unused;
      const auto [pi, src, dst] = k;
      const Phase p = static_cast<Phase>(pi);
      char label[64];
      std::snprintf(label, sizeof(label), "P%zu->P%zu", src, dst);
      const auto w_it = want.find(k);
      const auto g_it = got.find(k);
      const std::pair<std::uint64_t, std::uint64_t> w_v =
          w_it != want.end() ? w_it->second : std::pair<std::uint64_t,
                                                        std::uint64_t>{0, 0};
      const std::pair<std::uint64_t, std::uint64_t> g_v =
          g_it != got.end() ? g_it->second : std::pair<std::uint64_t,
                                                       std::uint64_t>{0, 0};
      check_count(AuditCheckKind::kComm, p, std::string(label) + " messages",
                  w_v.first, g_v.first,
                  "per-link message count diverges from the comm model");
      check_count(AuditCheckKind::kComm, p, std::string(label) + " bytes",
                  w_v.second, g_v.second,
                  "per-link byte total diverges from the comm model");
    }
  }
  breadcrumb(Phase::kPhase3);
}

void ConformanceAuditor::run_degraded(const std::vector<std::size_t>& dropped) {
  report_.incomplete = true;
  AuditFinding f;
  f.kind = AuditCheckKind::kIncomplete;
  f.phase = Phase::kPhase1;
  f.key = "degrade";
  f.expected = cfg_.n;
  f.measured = cfg_.n - dropped.size();
  std::string detail = "run degraded onto the survivor set; dropped parties:";
  for (const std::size_t p : dropped) detail += " P" + std::to_string(p);
  f.detail = std::move(detail);
  report_.findings.push_back(std::move(f));
  // The survivor rerun is a different instance — every expectation is void.
  check_ops_.fill(false);
  check_submitted_ = false;
  check_rounds_ = false;
  breadcrumb(Phase::kPhase1);
}

void ConformanceAuditor::run_faulted(Phase phase) {
  report_.incomplete = true;
  AuditFinding f;
  f.kind = AuditCheckKind::kIncomplete;
  f.phase = phase;
  f.key = "fault";
  f.detail = std::string("run aborted by a protocol fault in ") +
             runtime::phase_name(phase);
  report_.findings.push_back(std::move(f));
  breadcrumb(phase);
}

}  // namespace ppgr::engine

#include "engine/audit.h"

#include <cstdio>
#include <map>
#include <tuple>
#include <utility>

#include "benchcore/model.h"

namespace ppgr::engine {

namespace {

using runtime::CryptoOp;
using runtime::Phase;

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
    // Phase 1 only: the in-process sort (phase 2) exports its own costs.
    expected_ops_[static_cast<std::size_t>(Phase::kPhase1)] =
        benchcore::phase1_ops(cfg_.n);
    check_ops_[static_cast<std::size_t>(Phase::kPhase1)] = true;
    return;
  }
  // Phase 1 alone, on the session's own substreams, fixes every β; the
  // closed forms give the rest.
  core::FrameworkConfig fw;
  fw.spec = cfg_.spec;
  fw.n = cfg_.n;
  fw.k = cfg_.k;
  fw.group = cfg_.group;
  fw.dot_field = cfg_.dot_field;
  fw.dot_s = cfg_.dot_s;
  const std::vector<mpz::Nat> betas =
      core::phase1_betas(fw, v0, w, infos, rng);
  expected_ops_ = benchcore::model_he_ops(cfg_.spec, cfg_.n,
                                          benchcore::beta_popcounts(betas))
                      .phase_ops;
  check_ops_.fill(true);
  expected_submitted_ =
      benchcore::top_k_ids(benchcore::beta_ranks(betas), cfg_.k);
  check_submitted_ = true;
  // The measured side reports the Router's closed-round counter, empty
  // rounds included.
  expected_rounds_ =
      benchcore::model_he_schedule(cfg_.spec, cfg_.n, *cfg_.group,
                                   *cfg_.dot_field, cfg_.dot_s,
                                   expected_submitted_)
          .rounds;
  check_rounds_ = true;
}

void ConformanceAuditor::check_count(AuditCheckKind kind, Phase phase,
                                     const std::string& key,
                                     std::uint64_t expected,
                                     std::uint64_t measured,
                                     const std::string& what) {
  ++report_.checks;
  if (expected == measured) return;
  report_.findings.push_back(AuditFinding{.kind = kind,
                                          .phase = phase,
                                          .key = key,
                                          .expected = expected,
                                          .measured = measured,
                                          .detail = what});
}

void ConformanceAuditor::phase_complete(
    Phase phase, const runtime::MetricsRegistry* metrics) {
  ++report_.checkpoints;
  const auto pi = static_cast<std::size_t>(phase);
  if (metrics != nullptr && pi < runtime::kPhaseCount && check_ops_[pi]) {
    const runtime::OpTally measured = metrics->phase_totals(phase);
    const runtime::OpTally& want = expected_ops_[pi];
    for (std::size_t i = 0; i < runtime::kOpCount; ++i) {
      if (!benchcore::audited_op(static_cast<CryptoOp>(i))) continue;
      if (want.v[i] == 0 && measured.v[i] == 0) continue;
      check_count(AuditCheckKind::kPhaseOps, phase,
                  runtime::op_name(static_cast<CryptoOp>(i)), want.v[i],
                  measured.v[i],
                  std::string("op tally diverges from the model in ") +
                      runtime::phase_name(phase));
    }
  }
}

void ConformanceAuditor::run_complete(
    const std::vector<std::size_t>& submitted_ids,
    const runtime::MetricsRegistry* metrics, const runtime::CommRegistry* comm,
    std::size_t rounds) {
  (void)metrics;  // per-phase tallies were checked at the phase boundaries
  ++report_.checkpoints;
  if (check_submitted_) {
    ++report_.checks;
    if (submitted_ids != expected_submitted_)
      report_.findings.push_back(AuditFinding{
          .kind = AuditCheckKind::kSubmissions,
          .phase = Phase::kPhase3,
          .key = "submitted_ids",
          .expected = expected_submitted_.size(),
          .measured = submitted_ids.size(),
          .detail = "submitted top-k set diverges from the beta ranking"});
  }
  if (check_rounds_)
    check_count(AuditCheckKind::kRounds, Phase::kPhase3, "rounds",
                expected_rounds_, rounds,
                "transport round count diverges from the message schedule");
  // Byte-exact communication check against the closed-form model on the
  // real group. Skipped under a fault plan: CRC framing, retransmits and
  // drops legitimately change wire bytes there (divergence then surfaces
  // through the op / submission / incompleteness checks instead).
  if (comm != nullptr && !cfg_.fault_plan && cfg_.group != nullptr &&
      cfg_.dot_field != nullptr) {
    // Per (phase, src, dst) link: expected then measured (messages, bytes).
    std::map<std::tuple<Phase, std::size_t, std::size_t>,
             std::array<std::uint64_t, 4>>
        links;
    const auto add = [&](const std::vector<runtime::CommLink>& from,
                         std::size_t slot) {
      for (const runtime::CommLink& l : from) {
        // The SS baseline shares the HE wire codecs in phases 1 and 3 only;
        // its phase-2 traffic is the sort's own synthetic model.
        if (cfg_.ss && l.phase != Phase::kPhase1 && l.phase != Phase::kPhase3)
          continue;
        auto& v = links[{l.phase, l.src, l.dst}];
        v[slot] = l.messages;
        v[slot + 1] = l.bytes;
      }
    };
    add(benchcore::model_he_comm(cfg_.spec, cfg_.n, *cfg_.group,
                                 *cfg_.dot_field, cfg_.dot_s, submitted_ids),
        0);
    add(comm->links(), 2);
    for (const auto& [key, v] : links) {
      const auto& [phase, src, dst] = key;
      char label[64];
      std::snprintf(label, sizeof(label), "P%zu->P%zu", src, dst);
      check_count(AuditCheckKind::kComm, phase,
                  std::string(label) + " messages", v[0], v[2],
                  "per-link message count diverges from the comm model");
      check_count(AuditCheckKind::kComm, phase, std::string(label) + " bytes",
                  v[1], v[3],
                  "per-link byte total diverges from the comm model");
    }
  }
}

void ConformanceAuditor::run_degraded(const std::vector<std::size_t>& dropped) {
  report_.incomplete = true;
  std::string detail = "run degraded onto the survivor set; dropped parties:";
  for (const std::size_t p : dropped) detail += " P" + std::to_string(p);
  report_.findings.push_back(AuditFinding{.kind = AuditCheckKind::kIncomplete,
                                          .phase = Phase::kPhase1,
                                          .key = "degrade",
                                          .expected = cfg_.n,
                                          .measured = cfg_.n - dropped.size(),
                                          .detail = std::move(detail)});
  // The survivor rerun is a different instance — every expectation is void.
  check_ops_.fill(false);
  check_submitted_ = false;
  check_rounds_ = false;
}

void ConformanceAuditor::run_faulted(Phase phase) {
  report_.incomplete = true;
  report_.findings.push_back(AuditFinding{
      .kind = AuditCheckKind::kIncomplete,
      .phase = phase,
      .key = "fault",
      .detail = std::string("run aborted by a protocol fault in ") +
                runtime::phase_name(phase)});
}

}  // namespace ppgr::engine

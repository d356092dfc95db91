// Live model-conformance audit and the wide-event session log.
//
// Pins the acceptance contract of the audit layer:
//  - a clean fig2a-preset run audits to ZERO findings for both frameworks
//    (the differential reference / closed form really is an exact model);
//  - an injected-fault chaos run is flagged with a typed finding naming the
//    phase, and a degrade-on-dropout continuation with the dropped parties;
//  - tampered counters, submissions and round counts produce typed
//    kPhaseOps / kSubmissions / kRounds findings (the drift path);
//  - audit drift escalates engine health to degraded;
//  - the "ppgr.session.v1" wide event and the atomic "ppgr.postmortem.v1"
//    bundle render the result faithfully, and the bundle's fault report and
//    audit blocks are deterministic;
//  - with audit ON, every deterministic export stays bit-identical to a run
//    with it OFF (the observation-only contract).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "benchcore/model.h"
#include "engine/audit.h"
#include "engine/engine.h"
#include "engine/introspect.h"
#include "engine/session_log.h"

namespace ppgr::engine {
namespace {

using core::AttrVec;
using core::ProblemSpec;
using mpz::ChaChaRng;

// The fig2a preset (bench/engine_throughput): m=4, t=2, d1=8, d2=6, h=8.
RankingRequest fig2a_request(std::uint64_t sid, std::size_t n, std::size_t k,
                             FrameworkKind kind = FrameworkKind::kHe) {
  RankingRequest req;
  req.session_id = sid;
  req.framework = kind;
  req.spec = ProblemSpec{.m = 4, .t = 2, .d1 = 8, .d2 = 6, .h = 8};
  req.k = k;
  ChaChaRng rng{4242 + sid};
  req.v0.resize(req.spec.m);
  req.w.resize(req.spec.m);
  for (auto& x : req.v0) x = rng.below_u64(std::uint64_t{1} << req.spec.d1);
  for (auto& x : req.w) x = rng.below_u64(std::uint64_t{1} << req.spec.d2);
  for (std::size_t j = 0; j < n; ++j) {
    AttrVec v(req.spec.m);
    for (auto& x : v) x = rng.below_u64(std::uint64_t{1} << req.spec.d1);
    req.infos.push_back(std::move(v));
  }
  return req;
}

SessionResult run_one(RankingRequest req, bool audit) {
  EngineConfig cfg;
  cfg.seed = 7;
  cfg.audit = audit;
  SessionEngine eng{cfg};
  const std::uint64_t id = eng.submit(std::move(req));
  return eng.take(id);
}

TEST(ConformanceAudit, CleanFig2aHeRunHasZeroFindings) {
  const SessionResult res =
      run_one(fig2a_request(1, /*n=*/8, /*k=*/3), /*audit=*/true);
  EXPECT_EQ(res.outcome, SessionOutcome::kOk);
  ASSERT_NE(res.audit, nullptr);
  EXPECT_TRUE(res.audit->clean());
  EXPECT_STREQ(res.audit->verdict(), "clean");
  EXPECT_FALSE(res.audit->ss);
  // Every check family actually ran: 3 phase boundaries + run_complete.
  EXPECT_EQ(res.audit->checkpoints, 4u);
  EXPECT_GT(res.audit->checks, 10u);
}

TEST(ConformanceAudit, CleanFig2aSsRunHasZeroFindings) {
  const SessionResult res = run_one(
      fig2a_request(1, /*n=*/8, /*k=*/3, FrameworkKind::kSs), /*audit=*/true);
  EXPECT_EQ(res.outcome, SessionOutcome::kOk);
  ASSERT_NE(res.audit, nullptr);
  EXPECT_TRUE(res.audit->clean());
  EXPECT_TRUE(res.audit->ss);
  EXPECT_EQ(res.audit->checkpoints, 4u);
  EXPECT_GT(res.audit->checks, 0u);
}

TEST(ConformanceAudit, AuditOffLeavesResultWithoutReport) {
  const SessionResult res =
      run_one(fig2a_request(1, /*n=*/4, /*k=*/2), /*audit=*/false);
  EXPECT_EQ(res.audit, nullptr);
}

// The injected-tamper path: a session killed by the chaos layer must carry
// a typed incompleteness finding NAMING the phase it died in.
TEST(ConformanceAudit, FaultedRunIsFlaggedWithPhase) {
  RankingRequest req = fig2a_request(1, /*n=*/4, /*k=*/2);
  req.fault_plan = net::parse_fault_plan("seed=7,crash=2@1");
  const SessionResult res = run_one(std::move(req), /*audit=*/true);
  EXPECT_EQ(res.outcome, SessionOutcome::kFault);
  ASSERT_NE(res.audit, nullptr);
  EXPECT_STREQ(res.audit->verdict(), "incomplete");
  ASSERT_EQ(res.audit->findings.size(), 1u);
  const AuditFinding& f = res.audit->findings[0];
  EXPECT_EQ(f.kind, AuditCheckKind::kIncomplete);
  EXPECT_EQ(f.phase, runtime::Phase::kPhase1);
  EXPECT_EQ(f.key, "fault");
  EXPECT_NE(f.detail.find("phase1"), std::string::npos);
  // The fault report survived the unwind and logged the crash.
  ASSERT_TRUE(res.fault_report.has_value());
  ASSERT_EQ(res.fault_report->events.size(), 1u);
  EXPECT_EQ(res.fault_report->events[0].kind, net::FaultKind::kCrash);
  EXPECT_EQ(res.fault_report->events[0].src, 2u);
}

TEST(ConformanceAudit, DegradedRunNamesDroppedParties) {
  RankingRequest req = fig2a_request(1, /*n=*/4, /*k=*/2);
  req.fault_plan = net::parse_fault_plan("seed=7,crash=2@1");
  req.degrade_on_dropout = true;
  const SessionResult res = run_one(std::move(req), /*audit=*/true);
  EXPECT_EQ(res.outcome, SessionOutcome::kOk);  // survivors still ranked
  ASSERT_NE(res.audit, nullptr);
  EXPECT_STREQ(res.audit->verdict(), "incomplete");
  ASSERT_EQ(res.audit->findings.size(), 1u);
  const AuditFinding& f = res.audit->findings[0];
  EXPECT_EQ(f.kind, AuditCheckKind::kIncomplete);
  EXPECT_EQ(f.key, "degrade");
  EXPECT_NE(f.detail.find("P2"), std::string::npos);
  EXPECT_EQ(f.expected, 4u);
  EXPECT_EQ(f.measured, 3u);
}

// Tampered counters: feed the auditor a metrics view whose phase-1 tally
// disagrees with the closed form and expect a typed kPhaseOps finding.
TEST(ConformanceAudit, TamperedCountersProduceTypedDrift) {
  ConformanceAuditor::Config cfg;
  cfg.ss = true;  // closed form, no reference run needed
  cfg.spec = ProblemSpec{.m = 4, .t = 2, .d1 = 8, .d2 = 6, .h = 8};
  cfg.n = 3;
  ConformanceAuditor auditor{cfg, AttrVec(4, 1), AttrVec(4, 1),
                             std::vector<AttrVec>(3, AttrVec(4, 1)),
                             ChaChaRng{1}};
  runtime::MetricsRegistry tampered;
  using runtime::CryptoOp;
  using runtime::Phase;
  tampered.add(Phase::kPhase1, 0, CryptoOp::kDotprodQuery, 3);
  tampered.add(Phase::kPhase1, 0, CryptoOp::kDotprodAnswer, 2);  // one short
  tampered.add(Phase::kPhase1, 0, CryptoOp::kDotprodFinish, 3);
  auditor.phase_complete(Phase::kPhase1, &tampered);
  const AuditReport& report = auditor.report();
  EXPECT_STREQ(report.verdict(), "drift");
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].kind, AuditCheckKind::kPhaseOps);
  EXPECT_EQ(report.findings[0].phase, Phase::kPhase1);
  EXPECT_EQ(report.findings[0].expected, 3u);
  EXPECT_EQ(report.findings[0].measured, 2u);
  // The report serializes with the typed finding in place.
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"schema\": \"ppgr.audit.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"phase_ops\""), std::string::npos);
  EXPECT_NE(json.find("\"verdict\": \"drift\""), std::string::npos);
}

// The HE auditor's expectations come from phase 1 plus the closed forms;
// each tamper below breaks exactly one of them and must give exactly one
// typed finding.
class HeTamper : public ::testing::Test {
 protected:
  static constexpr std::size_t kN = 4;
  static constexpr std::size_t kK = 2;
  // Two phase-1 rounds, n + 5 phase-2 rounds (key shares, proofs, the empty
  // joint-key round, β bits, sets to P1, n chain hops), one phase-3 round.
  static constexpr std::size_t kRounds = kN + 8;

  HeTamper() : req_(fig2a_request(5, kN, kK)) {}

  ConformanceAuditor auditor() const {
    ConformanceAuditor::Config cfg;
    cfg.spec = req_.spec;
    cfg.n = kN;
    cfg.k = kK;
    cfg.group = group_.get();
    cfg.dot_field = &core::default_dot_field();
    return ConformanceAuditor{cfg, req_.v0, req_.w, req_.infos, ChaChaRng{9}};
  }
  // The instance's β values, from the stream the auditor is given.
  std::vector<mpz::Nat> betas() const {
    core::FrameworkConfig fw;
    fw.spec = req_.spec;
    fw.n = kN;
    fw.k = kK;
    fw.group = group_.get();
    fw.dot_field = &core::default_dot_field();
    ChaChaRng rng{9};
    return core::phase1_betas(fw, req_.v0, req_.w, req_.infos, rng);
  }
  std::vector<std::size_t> submitted() const {
    return benchcore::top_k_ids(benchcore::beta_ranks(betas()), kK);
  }

  RankingRequest req_;
  std::unique_ptr<group::Group> group_ =
      group::make_group(group::GroupId::kDlTest256);
};

TEST_F(HeTamper, ShortShuffleHopTallyIsPhaseOpsDrift) {
  ConformanceAuditor a = auditor();
  const runtime::OpTally want =
      benchcore::model_he_ops(req_.spec, kN, benchcore::beta_popcounts(betas()))
          .phase_ops[static_cast<std::size_t>(runtime::Phase::kPhase2)];
  runtime::MetricsRegistry tampered;
  for (std::size_t i = 0; i < runtime::kOpCount; ++i) {
    const auto op = static_cast<runtime::CryptoOp>(i);
    const std::uint64_t v =
        want.v[i] - (op == runtime::CryptoOp::kShuffleHop ? 1 : 0);
    if (v != 0) tampered.add(runtime::Phase::kPhase2, 1, op, v);
  }
  a.phase_complete(runtime::Phase::kPhase2, &tampered);
  const AuditReport& report = a.report();
  ASSERT_EQ(report.findings.size(), 1u) << report.to_json();
  const AuditFinding& f = report.findings[0];
  EXPECT_EQ(f.kind, AuditCheckKind::kPhaseOps);
  EXPECT_EQ(f.phase, runtime::Phase::kPhase2);
  EXPECT_EQ(f.key, runtime::op_name(runtime::CryptoOp::kShuffleHop));
  EXPECT_EQ(f.expected, kN * (kN - 1));  // one hop per party per foreign set
  EXPECT_EQ(f.measured, kN * (kN - 1) - 1);
}

TEST_F(HeTamper, WrongSubmittedSetIsSubmissionsDrift) {
  ConformanceAuditor a = auditor();
  std::vector<std::size_t> wrong = submitted();
  ASSERT_FALSE(wrong.empty());
  wrong.back() = wrong.back() % kN + 1;  // another party in the last slot
  ASSERT_NE(wrong, submitted());
  a.run_complete(wrong, nullptr, nullptr, kRounds);
  const AuditReport& report = a.report();
  ASSERT_EQ(report.findings.size(), 1u) << report.to_json();
  EXPECT_EQ(report.findings[0].kind, AuditCheckKind::kSubmissions);
  EXPECT_EQ(report.findings[0].key, "submitted_ids");
}

TEST_F(HeTamper, RoundCountOffByOneIsRoundsDrift) {
  ConformanceAuditor a = auditor();
  a.run_complete(submitted(), nullptr, nullptr, kRounds + 1);
  const AuditReport& report = a.report();
  ASSERT_EQ(report.findings.size(), 1u) << report.to_json();
  EXPECT_EQ(report.findings[0].kind, AuditCheckKind::kRounds);
  EXPECT_EQ(report.findings[0].expected, kRounds);
  EXPECT_EQ(report.findings[0].measured, kRounds + 1);
}

// Engine health: a session whose audit report carries findings (here via a
// degrade continuation — no protocol fault, so `faulted` stays 0) must
// escalate the snapshot and its telemetry line to degraded.
TEST(ConformanceAudit, AuditDriftDegradesEngineHealth) {
  EngineConfig cfg;
  cfg.seed = 7;
  cfg.audit = true;
  SessionEngine eng{cfg};
  RankingRequest req = fig2a_request(1, /*n=*/4, /*k=*/2);
  req.fault_plan = net::parse_fault_plan("seed=7,crash=2@1");
  req.degrade_on_dropout = true;
  const std::uint64_t id = eng.submit(std::move(req));
  const SessionResult res = eng.take(id);
  ASSERT_NE(res.audit, nullptr);
  ASSERT_FALSE(res.audit->clean());

  const EngineSnapshot snap = snapshot(eng, /*stall_deadline_s=*/5.0);
  EXPECT_EQ(snap.faulted, 0u);
  EXPECT_EQ(snap.audit_drift, 1u);
  EXPECT_EQ(snap.health, runtime::HealthState::kDegraded);
  EXPECT_NE(snap.to_jsonl().find("\"audit_drift\": 1"), std::string::npos);
  // The deterministic rollup's audit section counts the drifted session.
  const std::string rollup = eng.rollup_json();
  EXPECT_NE(rollup.find("\"drifted\": 1"), std::string::npos);
}

TEST(SessionLog, WideEventLineRendersTheResult) {
  const SessionResult res =
      run_one(fig2a_request(9, /*n=*/4, /*k=*/2), /*audit=*/true);
  const SessionLogInfo info{"dl-test-256", 4, 2};
  const std::string line = session_wide_event_json(res, info);
  EXPECT_EQ(line.find('\n'), std::string::npos);  // ONE line
  EXPECT_NE(line.find("\"schema\": \"ppgr.session.v1\""), std::string::npos);
  EXPECT_NE(line.find("\"id\": 9"), std::string::npos);
  EXPECT_NE(line.find("\"framework\": \"he\""), std::string::npos);
  EXPECT_NE(line.find("\"group\": \"dl-test-256\""), std::string::npos);
  EXPECT_NE(line.find("\"outcome\": \"ok\""), std::string::npos);
  EXPECT_NE(line.find("\"phase\": \"phase2\""), std::string::npos);
  EXPECT_NE(line.find("\"verdict\": \"clean\""), std::string::npos);
  EXPECT_EQ(line.find("\"fault\""), std::string::npos);  // clean run
}

TEST(SessionLog, PostmortemBundleIsAtomicAndComplete) {
  RankingRequest req = fig2a_request(3, /*n=*/4, /*k=*/2);
  req.fault_plan = net::parse_fault_plan("seed=7,crash=2@1");
  const SessionResult res = run_one(std::move(req), /*audit=*/true);
  ASSERT_EQ(res.outcome, SessionOutcome::kFault);
  const SessionLogInfo info{"dl-test-256", 4, 2};

  const std::string dir = ::testing::TempDir();
  std::string err;
  const std::string path = write_postmortem(dir, res, info, "", &err);
  ASSERT_FALSE(path.empty()) << err;
  EXPECT_NE(path.find("session-3.postmortem.json"), std::string::npos);
  // Atomic: the .tmp sibling must be gone.
  std::ifstream tmp{path + ".tmp"};
  EXPECT_FALSE(tmp.good());
  std::ifstream in{path};
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string doc = ss.str();
  EXPECT_NE(doc.find("\"schema\": \"ppgr.postmortem.v1\""),
            std::string::npos);
  EXPECT_NE(doc.find("\"ppgr.session.v1\""), std::string::npos);
  EXPECT_NE(doc.find("\"ppgr.fault.v1\""), std::string::npos);
  EXPECT_NE(doc.find("\"ppgr.audit.v1\""), std::string::npos);
  EXPECT_NE(doc.find("\"snapshot\": null"), std::string::npos);
  std::remove(path.c_str());
}

TEST(SessionLog, PostmortemWriteFailureReportsError) {
  const SessionResult res =
      run_one(fig2a_request(4, /*n=*/4, /*k=*/2), /*audit=*/false);
  const SessionLogInfo info{"dl-test-256", 4, 2};
  std::string err;
  const std::string path = write_postmortem(
      "/nonexistent-ppgr-dir", res, info, "", &err);
  EXPECT_TRUE(path.empty());
  EXPECT_FALSE(err.empty());
}

// The postmortem's forensic blocks are deterministic: two engines — one
// fresh, one that already served another session on a wider pool — run the
// same faulting request and render byte-identical fault report and audit
// blocks (everything but the wall-clock wide event and snapshot).
TEST(SessionLog, PostmortemForensicBlocksAreDeterministic) {
  const auto forensic_blocks = [](std::size_t parallelism, bool warm) {
    EngineConfig cfg;
    cfg.seed = 7;
    cfg.audit = true;
    cfg.parallelism = parallelism;
    SessionEngine eng{cfg};
    if (warm) (void)eng.take(eng.submit(fig2a_request(1, /*n=*/4, /*k=*/2)));
    RankingRequest req = fig2a_request(5, /*n=*/4, /*k=*/2);
    req.fault_plan = net::parse_fault_plan("seed=7,drop=0.2,crash=2@2");
    const SessionResult res = eng.take(eng.submit(std::move(req)));
    EXPECT_EQ(res.outcome, SessionOutcome::kFault);
    const std::string doc =
        postmortem_json(res, SessionLogInfo{"dl-test-256", 4, 2}, "");
    const std::size_t from = doc.find("\"fault_report\": ");
    const std::size_t to = doc.find(",\n  \"snapshot\": ");
    EXPECT_NE(from, std::string::npos);
    EXPECT_NE(to, std::string::npos);
    return doc.substr(from, to - from);
  };
  const std::string a = forensic_blocks(/*parallelism=*/1, /*warm=*/false);
  const std::string b = forensic_blocks(/*parallelism=*/2, /*warm=*/true);
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"ppgr.fault.v1\""), std::string::npos) << a;
  EXPECT_NE(a.find("\"kind\": \"crash\""), std::string::npos) << a;
  EXPECT_NE(a.find("\"ppgr.audit.v1\""), std::string::npos) << a;
}

// The observation-only contract at engine scale: audit ON leaves every
// deterministic export bit-identical to a run with it OFF.
TEST(ConformanceAudit, AuditDoesNotPerturbDeterministicExports) {
  const auto run = [](bool observed) {
    EngineConfig cfg;
    cfg.seed = 11;
    cfg.audit = observed;
    SessionEngine eng{cfg};
    std::vector<RankingRequest> reqs;
    reqs.push_back(fig2a_request(1, /*n=*/4, /*k=*/2));
    reqs.push_back(fig2a_request(2, /*n=*/5, /*k=*/2, FrameworkKind::kSs));
    return eng.run_batch(std::move(reqs));
  };
  const std::vector<SessionResult> plain = run(false);
  const std::vector<SessionResult> observed = run(true);
  ASSERT_EQ(plain.size(), observed.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    const SessionResult& a = plain[i];
    const SessionResult& b = observed[i];
    EXPECT_EQ(a.ranks(), b.ranks());
    EXPECT_EQ(a.submitted_ids(), b.submitted_ids());
    EXPECT_EQ(a.he.betas, b.he.betas);
    ASSERT_NE(a.metrics(), nullptr);
    ASSERT_NE(b.metrics(), nullptr);
    EXPECT_EQ(a.metrics()->to_json(/*include_timing=*/false),
              b.metrics()->to_json(/*include_timing=*/false));
    ASSERT_NE(a.comm(), nullptr);
    ASSERT_NE(b.comm(), nullptr);
    EXPECT_EQ(a.comm()->to_json(), b.comm()->to_json());
    // And the observed run really was observed.
    EXPECT_EQ(a.audit, nullptr);
    ASSERT_NE(b.audit, nullptr);
    EXPECT_TRUE(b.audit->clean());
  }
}

}  // namespace
}  // namespace ppgr::engine

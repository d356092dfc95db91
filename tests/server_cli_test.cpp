// Integration test for the ppgr_server exit-code contract, driven against
// the real binary (PPGR_SERVER_BIN, injected by CMake):
//   0 clean | 2 usage / unwritable output | 3 batch degraded (malformed,
//   rejected or faulted) | 4 conformance drift only.
// Also pins the per-line error reports on stderr, the wide-event session
// log, and the post-mortem bundle landing for faulting sessions.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#ifndef PPGR_SERVER_BIN
#error "PPGR_SERVER_BIN must be defined to the ppgr_server binary path"
#endif

namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out{path};
  ASSERT_TRUE(out.good()) << path;
  out << content;
}

std::string slurp(const std::string& path) {
  std::ifstream in{path};
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

struct RunResult {
  int exit_code = -1;
  std::string out;
  std::string err;
};

// Runs the server via the shell, capturing exit code, stdout and stderr.
RunResult run_server(const std::string& args) {
  const std::string out_path = temp_path("cli.out");
  const std::string err_path = temp_path("cli.err");
  const std::string cmd = std::string(PPGR_SERVER_BIN) + " " + args + " > " +
                          out_path + " 2> " + err_path;
  const int status = std::system(cmd.c_str());
  RunResult r;
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  r.out = slurp(out_path);
  r.err = slurp(err_path);
  return r;
}

// One small valid HE session; `extra` lines are appended verbatim.
std::string valid_session(std::uint64_t sid, const std::string& extra = "") {
  std::ostringstream ss;
  ss << "session " << sid << "\n"
     << "spec 4 2 8 4 8\n"
     << "k 1\n"
     << "criterion 35 120 0 0\n"
     << "weights 10 5 2 1\n"
     << "participant 34 118 90 55\n"
     << "participant 52 160 20 90\n"
     << "participant 35 121 40 40\n"
     << extra;
  return ss.str();
}

TEST(ServerCli, CleanBatchExitsZero) {
  const std::string req = temp_path("clean.req");
  write_file(req, valid_session(1) + valid_session(2));
  const RunResult r = run_server(req);
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("session 1 (he)"), std::string::npos);
  EXPECT_NE(r.out.find("session 2 (he)"), std::string::npos);
}

TEST(ServerCli, UsageErrorExitsTwo) {
  const RunResult r = run_server("--no-such-flag");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.err.find("unknown option"), std::string::npos);
}

TEST(ServerCli, MissingRequestFileExitsOne) {
  const RunResult r = run_server(temp_path("does-not-exist.req"));
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("cannot open"), std::string::npos);
}

TEST(ServerCli, MalformedLinesAreReportedAndExitThree) {
  const std::string req = temp_path("malformed.req");
  // Session 1 is fine; session 2 has a bad spec line; a stray directive
  // before any session is also reported.
  write_file(req, valid_session(1) +
                      "session 2\n"
                      "spec 4 2\n"  // truncated
                      "k 1\n");
  const RunResult r = run_server(req);
  EXPECT_EQ(r.exit_code, 3);
  // Per-line error report: file:line plus the dropped-session notice.
  EXPECT_NE(r.err.find("malformed.req:10"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("session 2 dropped"), std::string::npos);
  EXPECT_NE(r.err.find("batch degraded"), std::string::npos);
  // The good session still ran.
  EXPECT_NE(r.out.find("session 1 (he)"), std::string::npos);
}

TEST(ServerCli, UnwritableOutputPathExitsTwoBeforeRunning) {
  const std::string req = temp_path("unwritable.req");
  write_file(req, valid_session(1));
  const RunResult r =
      run_server(req + " --rollup-out x --metrics-out /nonexistent-dir/m.json");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.err.find("cannot open"), std::string::npos);
  // Fail-fast: no session output was produced.
  EXPECT_EQ(r.out.find("session 1"), std::string::npos);
}

TEST(ServerCli, UnwritablePostmortemDirExitsTwo) {
  const std::string req = temp_path("pmdir.req");
  write_file(req, valid_session(1));
  const RunResult r =
      run_server(req + " --postmortem-dir /nonexistent-ppgr-dir");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.err.find("cannot open"), std::string::npos);
}

TEST(ServerCli, FaultingSessionExitsThreeAndWritesPostmortem) {
  const std::string req = temp_path("faulting.req");
  write_file(req, valid_session(1, "fault-plan seed=7,crash=2@1\n") +
                      valid_session(2));
  const std::string pm_dir = ::testing::TempDir();
  const std::string slog = temp_path("faulting.slog.jsonl");
  const RunResult r =
      run_server(req + " --audit --postmortem-dir " + pm_dir +
                 " --session-log-out " + slog);
  EXPECT_EQ(r.exit_code, 3) << r.err;
  EXPECT_NE(r.err.find("session fault"), std::string::npos);
  // The bundle landed: the fault report logs party 2's crash, and the
  // session's audit report rides along.
  const std::string bundle = slurp(pm_dir + "/session-1.postmortem.json");
  EXPECT_NE(bundle.find("\"schema\": \"ppgr.postmortem.v1\""),
            std::string::npos);
  EXPECT_NE(bundle.find("\"ppgr.fault.v1\""), std::string::npos);
  EXPECT_NE(bundle.find("{\"kind\": \"crash\", \"round\": "),
            std::string::npos)
      << bundle;
  EXPECT_NE(bundle.find("\"src\": 2, \"dst\": 2"), std::string::npos)
      << bundle;
  EXPECT_NE(bundle.find("\"ppgr.audit.v1\""), std::string::npos);
  EXPECT_EQ(bundle.find("\"flight\""), std::string::npos);
  // The wide-event log has one line per session, fault coordinates on the
  // faulted one.
  const std::string log = slurp(slog);
  EXPECT_NE(log.find("\"outcome\": \"fault\""), std::string::npos);
  EXPECT_NE(log.find("\"outcome\": \"ok\""), std::string::npos);
  std::remove((pm_dir + "/session-1.postmortem.json").c_str());
}

TEST(ServerCli, AuditDriftAloneExitsFour) {
  // A degrade-on-dropout continuation completes (outcome ok, nothing
  // malformed or faulted) but the audit records the incompleteness — the
  // drift-only exit path.
  const std::string req = temp_path("drift.req");
  write_file(req, valid_session(
                      1, "fault-plan seed=7,crash=2@1\ndegrade-on-dropout\n"));
  const RunResult r = run_server(req + " --audit");
  EXPECT_EQ(r.exit_code, 4) << r.err;
  EXPECT_NE(r.err.find("audit drift"), std::string::npos);
  EXPECT_NE(r.err.find("conformance drift"), std::string::npos);
}

TEST(ServerCli, SessionLogHasOneLinePerSession) {
  const std::string req = temp_path("slog.req");
  write_file(req, valid_session(1) + valid_session(2));
  const std::string slog = temp_path("slog.jsonl");
  const RunResult r = run_server(req + " --session-log-out " + slog);
  EXPECT_EQ(r.exit_code, 0) << r.err;
  std::ifstream in{slog};
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_NE(line.find("\"schema\": \"ppgr.session.v1\""),
              std::string::npos);
  }
  EXPECT_EQ(lines, 2u);
}

}  // namespace

// Integration test for the directive-file errors of ppgr_cli (instance file)
// and ppgr_party (spec and input files), driven against the real binaries
// (PPGR_CLI_BIN / PPGR_PARTY_BIN, injected by CMake). A bad file exits 1
// with exactly one stderr line: "error: " and the message, which names the
// file and, for a bad line, its 1-based number (comments and blank lines
// count). ppgr_party parses both files before it opens a socket.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#ifndef PPGR_CLI_BIN
#error "PPGR_CLI_BIN must be defined to the ppgr_cli binary path"
#endif
#ifndef PPGR_PARTY_BIN
#error "PPGR_PARTY_BIN must be defined to the ppgr_party binary path"
#endif

namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string write_file(const std::string& name, const std::string& content) {
  const std::string path = temp_path(name);
  std::ofstream out{path};
  out << content;
  return path;
}

std::string slurp(const std::string& path) {
  std::ifstream in{path};
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

struct RunResult {
  int exit_code = -1;
  std::string err;
};

RunResult run(const std::string& bin, const std::string& args) {
  const std::string err_path = temp_path("cli_parse.err");
  const std::string cmd = bin + " " + args + " > /dev/null 2> " + err_path;
  const int status = std::system(cmd.c_str());
  RunResult r;
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  r.err = slurp(err_path);
  return r;
}

RunResult run_cli(const std::string& instance) {
  return run(PPGR_CLI_BIN,
             write_file("instance.ppgr", instance) + " --seed 1");
}

// Runs ppgr_party as participant 1 on the given spec and input file texts.
RunResult run_party(const std::string& spec, const std::string& input) {
  const std::string spec_path = write_file("party.spec", spec);
  const std::string input_path = write_file("party.input", input);
  return run(PPGR_PARTY_BIN, "--party-id 1 --listen 127.0.0.1:1 --spec " +
                                 spec_path + " --input " + input_path);
}

const char* const kHeader = "# test instance\nspec 4 2 8 4 8\n";
const char* const kPeople =
    "criterion 35 120 0 0\n"
    "weights 10 5 2 1\n"
    "\n"
    "participant 34 118 90 55\n"
    "participant 52 160 20 90\n";
const char* const kSpec =
    "spec 4 2 8 4 8\ngroup dl-test-256\nk 1\nparties 3\n";
const char* const kInput = "participant 34 118 90 55   # own data\n";

std::string error_line(const std::string& file, const std::string& what) {
  return "error: " + temp_path(file) + what + "\n";
}

TEST(CliParse, MalformedSpecLine) {
  const RunResult r =
      run_cli("# comment\n\nspec 4 2 8\n" + std::string(kPeople));
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(r.err, error_line("instance.ppgr", ":3: spec needs: m t d1 d2 h"));
}

TEST(CliParse, NonNumericValue) {
  const RunResult r = run_cli(std::string(kHeader) + kPeople +
                              "participant 1 2 x 4\n");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(r.err,
            error_line("instance.ppgr", ":8: non-numeric attribute value"));
}

TEST(CliParse, KNeedsANumber) {
  const RunResult r = run_cli(std::string(kHeader) + "k two\n" + kPeople);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(r.err, error_line("instance.ppgr", ":3: k needs a number"));
}

TEST(CliParse, UnknownDirective) {
  const RunResult r =
      run_cli(std::string(kHeader) + kPeople + "parties 2  # party-only\n");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(r.err,
            error_line("instance.ppgr", ":8: unknown directive 'parties'"));
}

TEST(CliParse, MissingSpec) {
  const RunResult r = run_cli(std::string("group dl-test-256\n") + kPeople);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(r.err, error_line("instance.ppgr", ": missing 'spec' line"));
}

TEST(CliParse, TooFewParticipants) {
  const RunResult r = run_cli(std::string(kHeader) +
                              "criterion 1 2 3 4\nweights 1 1 1 1\n"
                              "participant 1 2 3 4\n");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(r.err,
            error_line("instance.ppgr", ": need at least 2 participants"));
}

TEST(CliParse, MissingFile) {
  const std::string path = temp_path("no_such_instance.ppgr");
  const RunResult r = run(PPGR_CLI_BIN, path);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(r.err, "error: cannot open '" + path + "'\n");
}

TEST(PartyParse, MalformedSpecLine) {
  const RunResult r = run_party("group dl-test-256\nspec 4 2 8 4\n", kInput);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(r.err, error_line("party.spec", ":2: spec needs: m t d1 d2 h"));
}

TEST(PartyParse, PartiesNeedsANumber) {
  const RunResult r = run_party("spec 4 2 8 4 8\nparties many\n", kInput);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(r.err, error_line("party.spec", ":2: parties needs a number"));
}

TEST(PartyParse, PrivateDataInTheSpecFile) {
  const RunResult r = run_party(std::string(kSpec) + "criterion 1 2 3 4\n",
                                kInput);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(r.err,
            error_line("party.spec", ":5: unknown directive 'criterion'"));
}

TEST(PartyParse, MissingSpec) {
  const RunResult r = run_party("# no spec\nk 1\nparties 3\n", kInput);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(r.err, error_line("party.spec", ": missing 'spec' line"));
}

TEST(PartyParse, TooFewParties) {
  const RunResult r = run_party("spec 4 2 8 4 8\nparties 1\n", kInput);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(r.err, error_line("party.spec", ": need 'parties' >= 2"));
}

TEST(PartyParse, PublicAgreementInTheInputFile) {
  const RunResult r = run_party(kSpec, std::string(kInput) + "\nk 1\n");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(r.err, error_line("party.input", ":3: unknown directive 'k'"));
}

TEST(PartyParse, NonNumericInput) {
  const RunResult r = run_party(kSpec, "participant 34 118 9x0 55\n");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(r.err,
            error_line("party.input", ":1: non-numeric attribute value"));
}

}  // namespace

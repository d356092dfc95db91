// ppgr_party — one OS process per protocol party, over real TCP sockets.
//
// Where ppgr_cli runs all n+1 party state machines in one process over the
// deterministic in-process simulator, ppgr_party runs exactly ONE party
// (core/party_driver.h) and talks to its peers over net::tcp::TcpTransport.
// scripts/run_local.sh launches a full loopback deployment.
//
// Usage:
//   ppgr_party --party-id N --listen host:port --peers 0=h:p,1=h:p,...
//              --spec FILE --input FILE [options]
//
// The spec file is the PUBLIC instance agreement every process must share
// (any mismatch is refused at the socket handshake):
//
//   spec <m> <t> <d1> <d2> <h>
//   group <dl-1024|dl-2048|dl-3072|ecc-p192|ecc-p224|ecc-p256|dl-test-256>
//   k <top-k>
//   parties <n>                   # participant count (excl. the initiator)
//
// The input file is the party's PRIVATE data: for the initiator (party 0)
// a `criterion` and a `weights` line; for participant j a single
// `participant` line. scripts/run_local.sh splits a full ppgr_cli instance
// file into these per-party pieces.
//
// The initiator prints the submitted ids with their claimed ranks — all it
// learns; each participant prints its own rank.
//
// A shared --seed makes the socket run reproduce a same-seed single-process
// ppgr_cli run bit for bit (same ranks, same β values) — the verification
// harness, not a security feature. Without --seed each process draws its
// own OS entropy and the run is still a correct protocol execution.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "core/party_driver.h"
#include "directive_file.h"
#include "net/tcp/transport.h"

namespace {

using namespace ppgr;

/// The public agreement (spec file) — identical for every process.
struct SpecFile {
  core::ProblemSpec spec;
  group::GroupId group_id = group::GroupId::kEcP192;
  std::size_t k = 1;
  std::size_t parties = 0;  // participant count n
  std::string canonical;    // normalized text, hashed into the session id
};

/// The private per-party data (input file).
struct InputFile {
  core::AttrVec criterion;                 // initiator
  core::AttrVec weights;                   // initiator
  std::vector<core::AttrVec> participants; // exactly one for a participant
};

SpecFile parse_spec_file(const std::string& path) {
  SpecFile sf;
  bool have_spec = false;
  std::string group_name = "ecc-p192";
  cli::read_directives(path, [&](const std::string& directive,
                                 std::istringstream& line) {
    if (directive == "spec") {
      sf.spec = cli::parse_spec(line);
      sf.spec.validate();
      have_spec = true;
    } else if (directive == "group") {
      line >> group_name;
      sf.group_id = group::parse_group_id(group_name);
    } else if (directive == "k") {
      sf.k = cli::parse_count(line, directive);
    } else if (directive == "parties") {
      sf.parties = cli::parse_count(line, directive);
    } else {
      cli::unknown_directive(directive);
    }
  });
  if (!have_spec) throw std::runtime_error(path + ": missing 'spec' line");
  if (sf.parties < 2)
    throw std::runtime_error(path + ": need 'parties' >= 2");
  std::ostringstream canon;
  canon << sf.spec.m << ' ' << sf.spec.t << ' ' << sf.spec.d1 << ' '
        << sf.spec.d2 << ' ' << sf.spec.h << ' ' << group_name << ' ' << sf.k
        << ' ' << sf.parties;
  sf.canonical = canon.str();
  return sf;
}

InputFile parse_input_file(const std::string& path) {
  InputFile f;
  cli::read_directives(path, [&](const std::string& directive,
                                 std::istringstream& line) {
    if (directive == "criterion") {
      f.criterion = cli::parse_values(line);
    } else if (directive == "weights") {
      f.weights = cli::parse_values(line);
    } else if (directive == "participant") {
      f.participants.push_back(cli::parse_values(line));
    } else {
      cli::unknown_directive(directive);
    }
  });
  return f;
}

/// FNV-1a over the canonical public parameters + framework + seed: every
/// process derives the same session id from the same agreement, and the
/// socket handshake rejects anything else.
std::uint64_t session_id(const std::string& canonical, bool ss,
                         std::size_t threshold, bool seeded,
                         std::uint64_t seed) {
  std::ostringstream all;
  all << canonical << '|' << (ss ? "ss" : "he") << '|' << threshold << '|'
      << (seeded ? seed : 0) << '|' << seeded;
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : all.str()) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// Parses "0=127.0.0.1:9000,1=127.0.0.1:9001,..." into a peer table.
std::vector<net::tcp::Endpoint> parse_peers(const std::string& s,
                                            std::size_t parties) {
  std::vector<net::tcp::Endpoint> peers(parties);
  std::istringstream in{s};
  std::string item;
  while (std::getline(in, item, ',')) {
    if (item.empty()) continue;
    const auto eq = item.find('=');
    if (eq == std::string::npos)
      throw std::invalid_argument("--peers entry '" + item +
                                  "' is not id=host:port");
    const std::size_t id = std::stoul(item.substr(0, eq));
    if (id >= parties)
      throw std::invalid_argument("--peers id " + std::to_string(id) +
                                  " out of range");
    peers[id] = net::tcp::parse_endpoint(item.substr(eq + 1));
  }
  return peers;
}

void print_usage(const char* prog, std::FILE* out) {
  std::fprintf(
      out,
      "usage: %s --party-id N --listen host:port --peers 0=h:p,...\n"
      "       --spec FILE --input FILE [--seed N] [--framework he|ss]\n"
      "       [--threshold T] [--connect-timeout S] [--read-timeout S]\n"
      "       [--retries N] [--fault-out FILE] [--comm-out FILE] [--quiet]\n"
      "\n"
      "  --party-id N       own party id: 0 = initiator, 1..n participants\n"
      "  --listen host:port own listening endpoint (numeric IPv4)\n"
      "  --peers LIST       comma-separated id=host:port peer endpoints;\n"
      "                     entries for ids above --party-id may be omitted\n"
      "                     (those peers dial us)\n"
      "  --spec FILE        public instance agreement (spec/group/k/parties\n"
      "                     directives); must be identical everywhere — the\n"
      "                     handshake refuses mismatched sessions\n"
      "  --input FILE       private data: criterion+weights (initiator) or\n"
      "                     one participant line (participant)\n"
      "  --seed N           shared ChaCha20 seed; a socket run with a shared\n"
      "                     seed is bit-identical to the same-seed ppgr_cli\n"
      "                     run (verification harness, NOT a security\n"
      "                     feature). Default: per-process OS entropy\n"
      "  --framework he|ss  the paper's HE protocol (default) or the SS\n"
      "                     baseline (phase-2 sort on the sort host P1)\n"
      "  --threshold T      SS threshold t, n >= 2t+1 (default 1)\n"
      "  --connect-timeout S  per connect() attempt, seconds (default 5)\n"
      "  --read-timeout S   per-message receive deadline (default 30)\n"
      "  --retries N        extra connect attempts, doubling backoff from\n"
      "                     0.1s (default 8)\n"
      "  --fault-out FILE   write the transport fault report as JSON\n"
      "                     (schema ppgr.fault.v1)\n"
      "  --comm-out FILE    write measured communication as JSON (schema\n"
      "                     ppgr.comm.v1): this process's sends, replayed\n"
      "                     on the virtual network after the run\n"
      "  --quiet            suppress the participant's own-rank line\n"
      "  --help             show this message\n",
      prog);
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg{argv[i]};
    if (arg == "--help" || arg == "-h") {
      print_usage(argv[0], stdout);
      return 0;
    }
  }
  std::size_t party = 0;
  bool have_party = false;
  std::string listen_str;
  std::string peers_str;
  std::string spec_path;
  std::string input_path;
  std::uint64_t seed = 0;
  bool seeded = false;
  bool ss = false;
  std::size_t threshold = 1;
  net::tcp::SocketConfig socket_cfg;
  std::string fault_path;
  std::string comm_path;
  bool quiet = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg{argv[i]};
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc)
          throw std::invalid_argument(arg + " needs an argument");
        return argv[++i];
      };
      if (arg == "--party-id") {
        party = std::stoul(value());
        have_party = true;
      } else if (arg == "--listen") {
        listen_str = value();
      } else if (arg == "--peers") {
        peers_str = value();
      } else if (arg == "--spec") {
        spec_path = value();
      } else if (arg == "--input") {
        input_path = value();
      } else if (arg == "--seed") {
        seed = std::stoull(value());
        seeded = true;
      } else if (arg == "--framework") {
        const std::string fw = value();
        if (fw == "he") {
          ss = false;
        } else if (fw == "ss") {
          ss = true;
        } else {
          throw std::invalid_argument("--framework must be he or ss");
        }
      } else if (arg == "--threshold") {
        threshold = std::stoul(value());
      } else if (arg == "--connect-timeout") {
        socket_cfg.connect_timeout_s = std::stod(value());
      } else if (arg == "--read-timeout") {
        socket_cfg.read_timeout_s = std::stod(value());
        socket_cfg.write_timeout_s = socket_cfg.read_timeout_s;
      } else if (arg == "--retries") {
        socket_cfg.max_retries = std::stoul(value());
      } else if (arg == "--fault-out") {
        fault_path = value();
      } else if (arg == "--comm-out") {
        comm_path = value();
      } else if (arg == "--quiet") {
        quiet = true;
      } else {
        throw std::invalid_argument("unknown option '" + arg + "'");
      }
    }
    if (!have_party || listen_str.empty() || spec_path.empty() ||
        input_path.empty())
      throw std::invalid_argument(
          "--party-id, --listen, --spec and --input are required");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    print_usage(argv[0], stderr);
    return 2;
  }

  try {
    const SpecFile sf = parse_spec_file(spec_path);
    const InputFile inf = parse_input_file(input_path);
    const std::size_t n = sf.parties;
    if (party > n)
      throw std::runtime_error("--party-id " + std::to_string(party) +
                               " out of range (parties " + std::to_string(n) +
                               ")");
    core::PartyInput input;
    if (party == 0) {
      if (inf.criterion.empty() || inf.weights.empty())
        throw std::runtime_error(
            input_path + ": initiator input needs criterion and weights");
      input.v0 = inf.criterion;
      input.w = inf.weights;
    } else {
      if (inf.participants.size() != 1)
        throw std::runtime_error(
            input_path + ": participant input needs exactly one "
                         "participant line");
      input.info = inf.participants.front();
    }
    std::optional<std::ofstream> fault_out;
    std::optional<std::ofstream> comm_out;
    if (!fault_path.empty()) fault_out = cli::open_out(fault_path);
    if (!comm_path.empty()) comm_out = cli::open_out(comm_path);

    const auto group = group::make_group(sf.group_id);
    core::PartyConfig cfg;
    cfg.fw.spec = sf.spec;
    cfg.fw.n = n;
    cfg.fw.k = sf.k;
    cfg.fw.group = group.get();
    cfg.fw.dot_field = &core::default_dot_field();
    cfg.fw.metrics = comm_out.has_value();
    cfg.party = party;
    cfg.ss = ss;
    cfg.ss_threshold = threshold;

    net::tcp::TcpTransportConfig tcfg;
    tcfg.party = party;
    tcfg.parties = n + 1;
    tcfg.listen = net::tcp::parse_endpoint(listen_str);
    tcfg.peers = parse_peers(peers_str, n + 1);
    tcfg.session = session_id(sf.canonical, ss, threshold, seeded, seed);
    tcfg.socket = socket_cfg;
    net::tcp::TcpTransport transport{tcfg};
    transport.connect();

    mpz::ChaChaRng rng =
        seeded ? mpz::ChaChaRng{seed} : mpz::ChaChaRng::from_os();
    const auto result = core::run_party(cfg, input, transport, rng);
    transport.shutdown();

    if (party == 0) {
      // The initiator learns the top-k submissions only; each participant
      // prints its own rank (scripts/run_local.sh assembles the ranking).
      std::printf("n=%zu participants, k=%zu, group=%s, l=%zu bits\n\n", n,
                  sf.k, group->name().c_str(), sf.spec.beta_bits());
      for (std::size_t i = 0; i < result.submitted_ids.size(); ++i)
        std::printf("submission: participant %2zu claims rank %2zu\n",
                    result.submitted_ids[i], result.submitted_ranks[i]);
      std::printf("\n");
    } else if (!quiet) {
      std::printf("party %zu: rank %zu\n", party, result.rank);
    }
    std::printf("rounds=%zu messages=%zu bytes=%zu\n", result.trace.rounds(),
                result.trace.message_count(), result.trace.total_bytes());
    const net::FaultStats& fs = result.faults.stats;
    std::printf(
        "transport: retransmits=%llu crc_detected=%llu timeouts=%llu "
        "giveups=%llu\n",
        static_cast<unsigned long long>(fs.retransmits),
        static_cast<unsigned long long>(fs.crc_detected),
        static_cast<unsigned long long>(fs.timeouts),
        static_cast<unsigned long long>(fs.giveups));
    if (fault_out) {
      *fault_out << result.faults.to_json();
      if (!*fault_out)
        throw std::runtime_error("failed writing '" + fault_path + "'");
      std::printf("fault report written to %s\n", fault_path.c_str());
    }
    if (comm_out) {
      *comm_out << result.comm->to_json();
      if (!*comm_out)
        throw std::runtime_error("failed writing '" + comm_path + "'");
      std::printf("communication JSON written to %s\n", comm_path.c_str());
    }
    return 0;
  } catch (const core::ProtocolFault& pf) {
    const core::FaultInfo& fi = pf.info();
    std::fprintf(stderr, "protocol fault: %s\n", pf.what());
    std::fprintf(stderr, "  phase: %s\n  round: %zu\n",
                 runtime::phase_name(fi.phase), fi.round);
    if (fi.party != core::kNoParty)
      std::fprintf(stderr, "  party: P%zu\n", fi.party);
    std::fprintf(stderr, "  cause: %s\n", fi.cause.c_str());
    if (!fault_path.empty()) {
      std::ofstream out{fault_path};
      out << pf.report().to_json();
      if (out)
        std::fprintf(stderr, "fault report written to %s\n",
                     fault_path.c_str());
    }
    return 4;
  } catch (const net::ChannelError& e) {
    // Transport failures outside a protocol phase (handshake, mesh
    // bring-up) are typed faults too.
    std::fprintf(stderr, "transport fault: %s\n", e.what());
    return 4;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

// net::tcp subsystem tests (DESIGN.md §5f), three layers deep:
//
//  1. Stream frame codec over a flaky socketpair: roundtrips, short-read
//     reassembly, mid-frame peer close, garbage length fields, payload
//     corruption and read-timeout bounds must all surface as the typed
//     ChannelError taxonomy (or a crc_ok=false frame) — never a hang.
//  2. TcpTransport meshes on loopback (kernel-assigned ports): hello
//     handshake, FIFO delivery both directions, typed receive timeout,
//     peer-shutdown surfacing, and session-mismatch refusal.
//  3. The full protocol over sockets: n+1 in-process TcpTransport parties
//     (one thread each, real loopback TCP between them) driven by
//     core::run_party must reproduce a same-seed run_framework /
//     run_ss_framework run — ranks, submissions, β and the per-link
//     message and byte totals identical, for HE and SS; for HE also every
//     flow's virtual-time segments.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <thread>
#include <tuple>

#include "core/party_driver.h"
#include "core/ss_framework.h"
#include "net/tcp/transport.h"

namespace ppgr::net::tcp {
namespace {

std::vector<std::uint8_t> bytes_of(std::initializer_list<int> vals) {
  std::vector<std::uint8_t> out;
  for (const int v : vals) out.push_back(static_cast<std::uint8_t>(v));
  return out;
}

// A connected AF_UNIX stream pair: [0] wrapped as a TcpSocket with short
// timeouts (the reader under test), [1] kept raw for byte-level abuse.
struct FlakyPair {
  TcpSocket reader;
  int raw = -1;

  explicit FlakyPair(double timeout_s = 2.0) {
    int fds[2] = {-1, -1};
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
      throw std::runtime_error("socketpair failed");
    SocketConfig cfg;
    cfg.read_timeout_s = timeout_s;
    cfg.write_timeout_s = timeout_s;
    reader = TcpSocket{fds[0], cfg};
    raw = fds[1];
  }
  ~FlakyPair() {
    if (raw >= 0) ::close(raw);
  }
  void send_raw(const std::vector<std::uint8_t>& data) {
    ASSERT_EQ(::send(raw, data.data(), data.size(), 0),
              static_cast<ssize_t>(data.size()));
  }
  void close_raw() {
    ::close(raw);
    raw = -1;
  }
};

// ---- Layer 1: frame codec over the flaky pair ----

TEST(TcpFrames, RoundtripOverSocketpair) {
  FlakyPair pair;
  TcpSocket writer{pair.raw, SocketConfig{}};
  pair.raw = -1;  // ownership moved
  const auto payload = bytes_of({1, 2, 3, 4, 5});
  write_frame(writer, 7, payload);
  const Frame f = read_frame(pair.reader);
  EXPECT_TRUE(f.crc_ok);
  EXPECT_EQ(f.seq, 7u);
  EXPECT_EQ(f.payload, payload);
}

TEST(TcpFrames, ShortReadsReassemble) {
  FlakyPair pair;
  const auto payload = bytes_of({9, 8, 7, 6, 5, 4, 3, 2, 1});
  const auto wire = encode_frame(21, payload);
  // Dribble the frame one byte at a time from another thread: recv_exact
  // must reassemble across arbitrarily short reads.
  std::thread dribbler{[&] {
    for (const std::uint8_t b : wire) {
      (void)::send(pair.raw, &b, 1, 0);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }};
  const Frame f = read_frame(pair.reader);
  dribbler.join();
  EXPECT_TRUE(f.crc_ok);
  EXPECT_EQ(f.seq, 21u);
  EXPECT_EQ(f.payload, payload);
}

TEST(TcpFrames, GarbageLengthIsBadFrame) {
  {
    FlakyPair pair;
    pair.send_raw(bytes_of({0xff, 0xff, 0xff, 0xff}));  // 4 GiB "frame"
    try {
      (void)read_frame(pair.reader);
      FAIL() << "oversized length accepted";
    } catch (const ChannelError& e) {
      EXPECT_EQ(e.kind(), ChannelErrorKind::kBadFrame);
    }
  }
  {
    FlakyPair pair;
    pair.send_raw(bytes_of({4, 0, 0, 0}));  // shorter than the header
    try {
      (void)read_frame(pair.reader);
      FAIL() << "undersized length accepted";
    } catch (const ChannelError& e) {
      EXPECT_EQ(e.kind(), ChannelErrorKind::kBadFrame);
    }
  }
}

TEST(TcpFrames, MidFrameCloseIsPeerDead) {
  FlakyPair pair;
  const auto wire = encode_frame(3, bytes_of({1, 2, 3, 4, 5, 6, 7, 8}));
  pair.send_raw({wire.begin(), wire.begin() + 7});  // header + 3 bytes only
  pair.close_raw();
  try {
    (void)read_frame(pair.reader);
    FAIL() << "mid-frame close not surfaced";
  } catch (const ChannelError& e) {
    EXPECT_EQ(e.kind(), ChannelErrorKind::kPeerDead);
  }
}

TEST(TcpFrames, CorruptPayloadReportsCrcMismatch) {
  FlakyPair pair;
  auto wire = encode_frame(5, bytes_of({10, 20, 30, 40}));
  wire.back() ^= 0x01;  // flip one payload bit in flight
  pair.send_raw(wire);
  const Frame f = read_frame(pair.reader);
  EXPECT_FALSE(f.crc_ok);
  EXPECT_EQ(f.seq, 5u);
}

TEST(TcpFrames, ReadTimeoutIsBoundedAndTyped) {
  FlakyPair pair{0.2};
  const auto t0 = std::chrono::steady_clock::now();
  try {
    (void)read_frame(pair.reader);
    FAIL() << "read on a silent link did not time out";
  } catch (const ChannelError& e) {
    EXPECT_EQ(e.kind(), ChannelErrorKind::kTimeout);
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(elapsed, 5.0) << "timeout not bounded by the configured 0.2s";
}

// ---- Layer 2: TcpTransport meshes on loopback ----

// Builds a fully-connected mesh of `parties` transports on kernel-assigned
// loopback ports and connects them concurrently.
std::vector<std::unique_ptr<TcpTransport>> make_mesh(
    std::size_t parties, std::uint64_t session, double read_timeout_s = 30.0) {
  std::vector<std::unique_ptr<TcpTransport>> mesh;
  for (std::size_t p = 0; p < parties; ++p) {
    TcpTransportConfig cfg;
    cfg.party = p;
    cfg.parties = parties;
    cfg.listen = Endpoint{"127.0.0.1", 0};
    cfg.peers.resize(parties);
    cfg.session = session;
    cfg.socket.read_timeout_s = read_timeout_s;
    mesh.push_back(std::make_unique<TcpTransport>(std::move(cfg)));
  }
  for (std::size_t p = 0; p < parties; ++p)
    for (std::size_t q = 0; q < parties; ++q)
      if (q != p)
        mesh[p]->set_peer(q, Endpoint{"127.0.0.1", mesh[q]->listen_port()});
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(parties);
  for (std::size_t p = 0; p < parties; ++p)
    threads.emplace_back([&, p] {
      try {
        mesh[p]->connect();
      } catch (...) {
        errors[p] = std::current_exception();
      }
    });
  for (auto& t : threads) t.join();
  for (auto& e : errors)
    if (e) std::rethrow_exception(e);
  return mesh;
}

TEST(TcpTransportMesh, FifoDeliveryBothDirections) {
  auto mesh = make_mesh(2, 0xABCD);
  mesh[0]->send(0, 1, bytes_of({1, 1, 1}));
  mesh[0]->send(0, 1, bytes_of({2, 2}));
  mesh[1]->send(1, 0, bytes_of({3}));
  EXPECT_EQ(mesh[1]->receive(0, 1), bytes_of({1, 1, 1}));
  EXPECT_EQ(mesh[1]->receive(0, 1), bytes_of({2, 2}));
  EXPECT_EQ(mesh[0]->receive(1, 0), bytes_of({3}));
  const FaultStats s = mesh[1]->stats();
  EXPECT_EQ(s.crc_detected, 0u);
  EXPECT_EQ(s.timeouts, 0u);
  EXPECT_EQ(s.giveups, 0u);
}

TEST(TcpTransportMesh, ReceiveTimeoutIsTyped) {
  auto mesh = make_mesh(2, 0xABCE, 0.2);
  try {
    (void)mesh[1]->receive(0, 1);
    FAIL() << "receive on a silent link did not time out";
  } catch (const ChannelError& e) {
    EXPECT_EQ(e.kind(), ChannelErrorKind::kTimeout);
    EXPECT_EQ(e.src(), 0u);
    EXPECT_EQ(e.dst(), 1u);
  }
  EXPECT_GE(mesh[1]->stats().timeouts, 1u);
}

TEST(TcpTransportMesh, PeerShutdownSurfacesPeerDead) {
  auto mesh = make_mesh(2, 0xABCF, 5.0);
  mesh[0]->send(0, 1, bytes_of({42}));
  mesh[0]->shutdown();
  // The already-delivered frame drains first; then the closed link is a
  // typed kPeerDead, not a hang.
  EXPECT_EQ(mesh[1]->receive(0, 1), bytes_of({42}));
  try {
    (void)mesh[1]->receive(0, 1);
    FAIL() << "closed link not surfaced";
  } catch (const ChannelError& e) {
    EXPECT_EQ(e.kind(), ChannelErrorKind::kPeerDead);
  }
}

TEST(TcpTransportMesh, SessionMismatchRefused) {
  // Two processes launched from different instance agreements must refuse
  // each other at the handshake.
  std::vector<std::unique_ptr<TcpTransport>> mesh;
  for (std::size_t p = 0; p < 2; ++p) {
    TcpTransportConfig cfg;
    cfg.party = p;
    cfg.parties = 2;
    cfg.listen = Endpoint{"127.0.0.1", 0};
    cfg.peers.resize(2);
    cfg.session = 100 + p;  // disagree
    cfg.socket.read_timeout_s = 2.0;
    mesh.push_back(std::make_unique<TcpTransport>(std::move(cfg)));
  }
  mesh[0]->set_peer(1, Endpoint{"127.0.0.1", mesh[1]->listen_port()});
  mesh[1]->set_peer(0, Endpoint{"127.0.0.1", mesh[0]->listen_port()});
  std::vector<std::exception_ptr> errors(2);
  std::vector<std::thread> threads;
  for (std::size_t p = 0; p < 2; ++p)
    threads.emplace_back([&, p] {
      try {
        mesh[p]->connect();
      } catch (...) {
        errors[p] = std::current_exception();
      }
    });
  for (auto& t : threads) t.join();
  std::size_t typed = 0;
  for (auto& e : errors) {
    if (!e) continue;
    try {
      std::rethrow_exception(e);
    } catch (const ChannelError&) {
      ++typed;
    }
  }
  EXPECT_GE(typed, 1u) << "session mismatch accepted";
}

// ---- Layer 3: the full protocol over sockets ----

struct Instance {
  core::AttrVec v0{35, 120, 0, 0};
  core::AttrVec w{10, 5, 2, 1};
  std::vector<core::AttrVec> infos{{34, 118, 90, 55},
                                   {52, 160, 20, 90},
                                   {35, 121, 40, 40},
                                   {29, 130, 70, 35}};
};

core::FrameworkConfig make_fw(const group::Group* g) {
  core::FrameworkConfig fw;
  fw.spec.m = 4;
  fw.spec.t = 2;
  fw.spec.d1 = 8;
  fw.spec.d2 = 4;
  fw.spec.h = 8;
  fw.n = 4;
  fw.k = 2;
  fw.group = g;
  fw.dot_field = &core::default_dot_field();
  return fw;
}

// Runs all n+1 parties of `cfg` as one thread + TcpTransport each (real
// loopback TCP between them), every party seeded with `seed`.
std::vector<core::PartyResult> run_socket_mesh(const core::PartyConfig& base,
                                               const Instance& inst,
                                               std::uint64_t seed) {
  const std::size_t parties = base.fw.n + 1;
  auto mesh = make_mesh(parties, 0xD00D ^ seed);
  std::vector<core::PartyResult> results(parties);
  std::vector<std::exception_ptr> errors(parties);
  std::vector<std::thread> threads;
  for (std::size_t p = 0; p < parties; ++p)
    threads.emplace_back([&, p] {
      try {
        core::PartyConfig cfg = base;
        cfg.party = p;
        core::PartyInput input;
        if (p == 0) {
          input.v0 = inst.v0;
          input.w = inst.w;
        } else {
          input.info = inst.infos[p - 1];
        }
        mpz::ChaChaRng rng{seed};
        results[p] = core::run_party(cfg, input, *mesh[p], rng);
      } catch (...) {
        errors[p] = std::current_exception();
      }
    });
  for (auto& t : threads) t.join();
  for (auto& e : errors)
    if (e) std::rethrow_exception(e);
  return results;
}

// Per-(phase, src, dst) message counts and bytes. Each process accounts
// what it sends (the sort host also the SS sort's synthetic traffic), so
// the processes' registries sum to the in-process run's.
using LinkTotals =
    std::map<std::tuple<runtime::Phase, std::size_t, std::size_t>,
             std::pair<std::uint64_t, std::uint64_t>>;
LinkTotals link_totals(const std::vector<const runtime::CommRegistry*>& regs) {
  LinkTotals out;
  for (const auto* reg : regs)
    for (const runtime::CommLink& l : reg->links()) {
      auto& slot = out[{l.phase, l.src, l.dst}];
      slot.first += l.messages;
      slot.second += l.bytes;
    }
  return out;
}
LinkTotals merged_socket_links(const std::vector<core::PartyResult>& results) {
  std::vector<const runtime::CommRegistry*> regs;
  for (const auto& r : results) regs.push_back(r.comm.get());
  return link_totals(regs);
}

// Every flow as (phase, round, src, dst, bytes, tx_s, prop_s, queue_s),
// sorted. send_s and deliver_s are left out: a process's rounds last only
// as long as its own sends take, so its clock runs differently.
using FlowKey = std::tuple<runtime::Phase, std::size_t, std::size_t,
                           std::size_t, std::size_t, double, double, double>;
std::vector<FlowKey> flow_keys(
    const std::vector<const runtime::CommRegistry*>& regs) {
  std::vector<FlowKey> out;
  for (const auto* reg : regs)
    for (const runtime::FlowRecord& f : reg->flows())
      out.emplace_back(f.phase, f.round, f.src, f.dst, f.bytes, f.t.tx_s,
                       f.t.prop_s, f.t.queue_s);
  std::sort(out.begin(), out.end());
  return out;
}

// The initiator's view: exactly the top-k submissions, with their claimed
// ranks — nothing about the other participants.
void expect_initiator_view(const core::PartyResult& initiator,
                           const std::vector<std::size_t>& ranks,
                           const std::vector<std::size_t>& submitted) {
  EXPECT_EQ(initiator.submitted_ids, submitted);
  ASSERT_EQ(initiator.submitted_ranks.size(), submitted.size());
  for (std::size_t i = 0; i < submitted.size(); ++i)
    EXPECT_EQ(initiator.submitted_ranks[i], ranks[submitted[i] - 1]);
}

TEST(TcpPartyE2E, HeSocketRunBitIdenticalToSimulator) {
  const Instance inst;
  const auto group = group::make_group(group::GroupId::kDlTest256);
  core::FrameworkConfig fw = make_fw(group.get());
  fw.metrics = true;

  mpz::ChaChaRng ref_rng{42};
  const core::FrameworkResult ref =
      core::run_framework(fw, inst.v0, inst.w, inst.infos, ref_rng);

  core::PartyConfig base;
  base.fw = fw;
  const auto results = run_socket_mesh(base, inst, 42);

  expect_initiator_view(results[0], ref.ranks, ref.submitted_ids);
  // Every participant's own view: rank AND masked gain β bit-identical —
  // the whole phase-2 pipeline (keys, encryptions, comparisons, shuffles)
  // ran on the same substreams over real sockets.
  for (std::size_t j = 1; j <= fw.n; ++j) {
    EXPECT_EQ(results[j].rank, ref.ranks[j - 1]) << "party " << j;
    EXPECT_EQ(results[j].beta, ref.betas[j - 1]) << "party " << j;
  }
  // One wire format: the same messages and bytes on every link.
  EXPECT_EQ(merged_socket_links(results), link_totals({ref.comm.get()}));
}

TEST(TcpPartyE2E, HeSocketFlowTimingsEqualTheInProcessRun) {
  // Each process's comm report replays its own sends. On the complete
  // graph a directed link carries only its sender's messages, so every
  // flow's transmission, propagation and queueing segments equal the
  // in-process run's exactly.
  const Instance inst;
  const auto group = group::make_group(group::GroupId::kDlTest256);
  core::FrameworkConfig fw = make_fw(group.get());
  fw.metrics = true;

  mpz::ChaChaRng ref_rng{11};
  const core::FrameworkResult ref =
      core::run_framework(fw, inst.v0, inst.w, inst.infos, ref_rng);

  core::PartyConfig base;
  base.fw = fw;
  const auto results = run_socket_mesh(base, inst, 11);
  std::vector<const runtime::CommRegistry*> regs;
  for (const auto& r : results) regs.push_back(r.comm.get());
  const std::vector<FlowKey> merged = flow_keys(regs);
  ASSERT_EQ(merged.size(), ref.comm->message_count());
  EXPECT_EQ(merged, flow_keys({ref.comm.get()}));
}

TEST(TcpPartyE2E, SsSocketRunBitIdenticalToSimulator) {
  const Instance inst;
  const auto group = group::make_group(group::GroupId::kDlTest256);
  core::FrameworkConfig fw = make_fw(group.get());
  fw.metrics = true;

  core::SsFrameworkConfig scfg;
  scfg.base = fw;
  scfg.threshold = 1;
  mpz::ChaChaRng ref_rng{7};
  const core::SsFrameworkResult ref =
      core::run_ss_framework(scfg, inst.v0, inst.w, inst.infos, ref_rng);
  // Phase 1 is the HE framework's, on the same substreams: its β values are
  // the SS run's too.
  mpz::ChaChaRng he_rng{7};
  const core::FrameworkResult he =
      core::run_framework(fw, inst.v0, inst.w, inst.infos, he_rng);

  core::PartyConfig base;
  base.fw = fw;
  base.ss = true;
  base.ss_threshold = 1;
  const auto results = run_socket_mesh(base, inst, 7);

  expect_initiator_view(results[0], ref.ranks, ref.submitted_ids);
  for (std::size_t j = 1; j <= fw.n; ++j) {
    EXPECT_EQ(results[j].rank, ref.ranks[j - 1]) << "party " << j;
    EXPECT_EQ(results[j].beta, he.betas[j - 1]) << "party " << j;
  }
  EXPECT_EQ(merged_socket_links(results), link_totals({ref.comm.get()}));
}

}  // namespace
}  // namespace ppgr::net::tcp

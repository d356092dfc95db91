// Fig. 3(b): execution time including network latency, on the paper's
// topology: 80 nodes, 320 duplex 2 Mbps links with 50 ms latency, random
// connected graph obtained by deleting edges from the complete graph.
// The HE message schedules (benchcore::model_he_schedule on each priced
// group) are replayed through the packet simulator.
//
// Two SS variants are simulated (see EXPERIMENTS.md):
//  - "ss-lean": this repository's implementation (linear-round prefix
//    products, ~15l multiplications per comparison -> few bytes, many
//    rounds);
//  - "ss-279l": the primitive the paper cites (Nishide-Ohta, constant
//    rounds, 279l+5 multiplications per comparison, each an all-to-all
//    resharing) — the baseline the paper's crossover claim is about.
//
// Paper observation to reproduce (with ss-279l): SS beats DL for small n
// but falls behind as n grows, when its traffic and congestion explode;
// ECC best throughout.
#include <cstdio>

#include "bench_flags.h"
#include "benchcore/model.h"
#include "net/simulator.h"
#include "sss/mpc_sort.h"

namespace {

// One representative all-to-all round among n parties, scaled by the round
// count: every parallel round of an SS protocol is statistically identical,
// so simulating one and multiplying is equivalent to simulating them all.
double all_to_all_rounds_seconds(ppgr::net::Simulator& sim,
                                 std::span<const std::size_t> node_of,
                                 std::size_t n, double total_bytes,
                                 double rounds) {
  const std::size_t pairs = n * (n - 1);
  const std::size_t per_msg = std::max<std::size_t>(
      1, static_cast<std::size_t>(total_bytes / (rounds * pairs)));
  std::vector<ppgr::runtime::Transfer> one_round;
  one_round.reserve(pairs);
  for (std::size_t a = 1; a <= n; ++a)
    for (std::size_t b = 1; b <= n; ++b)
      if (a != b) one_round.push_back({0, a, b, per_msg});
  return sim.replay(one_round, node_of).total_seconds * rounds;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ppgr;
  using benchcore::TablePrinter;
  bench::BenchFlags flags = bench::parse_bench_flags(argc, argv);

  // The paper's network.
  mpz::ChaChaRng topo_rng{80320};
  const net::Topology topo = net::Topology::random_connected(80, 320, topo_rng);
  net::Simulator sim{topo, net::SimulatorConfig{}};

  const auto spec = benchcore::paper_default_spec();
  const std::size_t l_field = spec.beta_bits() + 2;
  const auto dl = group::make_group(group::GroupId::kDl1024);
  const auto ec = group::make_group(group::GroupId::kEcP192);
  mpz::ChaChaRng rng{44};
  const auto dl_costs = benchcore::calibrate_group(*dl, rng);
  const auto ec_costs = benchcore::calibrate_group(*ec, rng);
  // Assumed round count of the cited constant-round comparison.
  constexpr double kNishideOhtaRounds = 15.0;

  std::printf("Fig 3(b): execution time (computation + simulated network) "
              "vs n\n80-node random graph, 320 links, 2 Mbps, 50 ms "
              "latency\n\n");
  TablePrinter table({"n", "ss-lean", "ss-279l", "dl-1024", "ecc-p192",
                      "ss279 net", "dl net", "ecc net"});

  for (const std::size_t n : {10u, 20u, 30u, 40u, 50u, 60u, 70u}) {
    // Place parties on distinct nodes, spread deterministically.
    std::vector<std::size_t> node_of(n + 1);
    for (std::size_t p = 0; p <= n; ++p) node_of[p] = (p * 79) % 80;

    const std::uint64_t seed = 1000 + n;
    const auto ssp = benchcore::price_ss_framework(spec, n, 3, seed);
    const auto dl_counts = benchcore::count_he_framework(spec, n, 3, *dl, seed);
    const auto ec_counts = benchcore::count_he_framework(spec, n, 3, *ec, seed);
    const auto dlp =
        benchcore::price_he_counts(dl_counts, dl->name(), dl_costs);
    const auto ecp =
        benchcore::price_he_counts(ec_counts, ec->name(), ec_costs);

    // HE schedules: replay in full.
    const double dl_net =
        sim.replay(dl_counts.schedule.transfers, node_of).total_seconds;
    const double ec_net =
        sim.replay(ec_counts.schedule.transfers, node_of).total_seconds;

    // ss-lean: this repo's implementation, measured counts.
    const double lean_net = all_to_all_rounds_seconds(
        sim, node_of, n, static_cast<double>(ssp.totals.bytes),
        static_cast<double>(std::max<std::uint64_t>(1, ssp.parallel_rounds)));

    // ss-279l: cited primitive. Per comparison: (279 l + 5) GRR
    // multiplications, each an n(n-1)-message resharing of field elements;
    // constant ~15 rounds per comparison, layer-parallel network.
    const auto network = sss::batcher_network(n);
    const double comparators =
        static_cast<double>(sss::comparator_count(network));
    const double mults279 = comparators * (279.0 * l_field + 5.0);
    const std::size_t fe_bytes = (l_field + 7) / 8;
    const double bytes279 =
        mults279 * static_cast<double>(n * (n - 1)) * fe_bytes;
    const double rounds279 =
        static_cast<double>(network.size()) * kNishideOhtaRounds + 2.0;
    const double ss279_net =
        all_to_all_rounds_seconds(sim, node_of, n, bytes279, rounds279);
    // Compute cost of ss-279l: same per-multiplication price as measured.
    const mpz::FpCtx& ss_field = core::ss_field_for_beta_bits(spec.beta_bits());
    mpz::ChaChaRng crng{seed + 9};
    const auto ss_costs = benchcore::calibrate_ss(
        ss_field, n, std::max<std::size_t>(1, (n - 1) / 2), crng);
    const double ss279_cpu = mults279 * ss_costs.mult_party_s;

    table.row({std::to_string(n),
               TablePrinter::fmt_seconds(ssp.total_seconds() + lean_net),
               TablePrinter::fmt_seconds(ss279_cpu + ss279_net),
               TablePrinter::fmt_seconds(dlp.total_seconds() + dl_net),
               TablePrinter::fmt_seconds(ecp.total_seconds() + ec_net),
               TablePrinter::fmt_seconds(ss279_net),
               TablePrinter::fmt_seconds(dl_net),
               TablePrinter::fmt_seconds(ec_net)});
  }
  std::printf(
      "\nObserved shape: ECC best throughout (reproduces the paper); the "
      "network\ncost decomposition shows the paper's mechanism — SS cost "
      "driven by its\ninteraction traffic, DL by bulk chain transfers — but "
      "the specific SS<DL\nsmall-n crossover the paper reports does not "
      "emerge under store-and-forward\nreplay of the full protocol volumes; "
      "see the Fig 3(b) analysis in\nEXPERIMENTS.md.\n\n");
  if (flags.e2e_requested()) bench::run_parallel_e2e(flags);
  return 0;
}

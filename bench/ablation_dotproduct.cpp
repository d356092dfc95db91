// Ablation: the secure dot product's disguise dimension s.
//
// The Ioannidis protocol hides Bob's vector inside an s x d matrix; s
// controls the size of the linear system an adversary faces and the cost of
// phase 1. The paper (citing [2]) notes s "is not necessary to be a big
// number"; this ablation quantifies the cost of growing it: computation is
// O(s^2 + s·d) for Bob and the round-1 message is (s+2)·d field elements.
#include <cstdio>

#include "benchcore/model.h"
#include "dotprod/dot_product.h"
#include "runtime/metrics.h"

namespace {
constexpr auto now_s = ppgr::runtime::metrics_now_seconds;
}  // namespace

int main() {
  using namespace ppgr;
  using benchcore::TablePrinter;
  const auto& f = core::default_dot_field();
  const std::size_t d = 16;  // m + t + 1 for the paper's default spec

  std::printf("Ablation: dot-product disguise dimension s (d = %zu)\n\n", d);
  TablePrinter table({"s", "bob time", "alice time", "bob->alice bytes"});
  mpz::ChaChaRng rng{11};
  dotprod::FVec w(d), v(d);
  for (auto& x : w) x = f.random(rng);
  for (auto& x : v) x = f.random(rng);

  for (const std::size_t s : {2u, 4u, 8u, 16u, 32u, 64u}) {
    double bob_time;
    {
      const double t0 = now_s();
      for (int i = 0; i < 10; ++i) {
        const dotprod::DotProductBob bob{f, w, s, rng};
        (void)bob;
      }
      bob_time = (now_s() - t0) / 10;
    }
    const dotprod::DotProductBob bob{f, w, s, rng};
    double alice_time;
    {
      const double t0 = now_s();
      for (int i = 0; i < 10; ++i)
        (void)dotprod::dot_product_alice(f, bob.round1(), v);
      alice_time = (now_s() - t0) / 10;
    }
    table.row({std::to_string(s), TablePrinter::fmt_seconds(bob_time),
               TablePrinter::fmt_seconds(alice_time),
               std::to_string(dotprod::bob_message_bytes(f, s, d))});
  }
  std::printf("\nExpected: linear-to-quadratic growth in s; s = 8 (the "
              "library default) costs well under a millisecond.\n");
  return 0;
}

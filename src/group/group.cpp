// Factory for the parameter sets evaluated in the paper, plus the embedded
// safe-prime constants for the DL groups.
//
// The safe primes below were generated once with `openssl prime -generate
// -safe` and are re-verified (p and (p-1)/2 prime, exact bit widths) by
// tests/group_test.cpp using this library's own Miller-Rabin implementation.
#include "group/group.h"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "group/ec_group.h"
#include "group/schnorr_group.h"

namespace ppgr::group {

namespace {

const char* kSafePrime1024 =
    "E4D62C336D05E5BDB82AB3D4BBF2BF5CA32BC3B3DCD2C857BE95099C7399589BDDB6FC5C"
    "8515A2D501F3296BCF100146F53FC959F99AE52C8D69DC495A9F216321B96FAB73ACAB22"
    "733705696B435EFA63AAE15E2C80BC12292C6F5587E27BE91940B135CF249C046A96806B"
    "9FB7426D1A81729A378C83146DB1F01F3E4700C3";

const char* kSafePrime2048 =
    "DF7101199C884F3E1EE991B69143E0EBD453186C7D7714895DA70D95FD2E2CD09C3C8536"
    "8066BB1B07FBCA112D69EFAEAC5D701A0FB78ACE2D3FC06889CCC6B48F804B4EAA285917"
    "30BAD0245C183A8DECC9BF84C79978343EB3A06147AF97D8DD2C78B1C2D39CEF1EACB22C"
    "50740AAC5E5E586A186EFC57A0D02C9DD96632B502FEBFCEB212A8423FFE15E516702D66"
    "F956BCF4BFC7D18FBC245E15B9EA3DFE08404B2EDEA845E114E3E49F498E805F9CF675A2"
    "A6692532F3B01777EADFFADFD0F9E40382754DE085131C068E04B36CA18808564B956DF5"
    "7986B5D162C6AC417028084AD454078C36253F3749CD369F272D943FFFC181E8DA086954"
    "6628B127";

const char* kSafePrime3072 =
    "FACA24F5F0CFBB891B475E6C0C3C3C7E127206625E33021AC872745DF52ED069EFB12063"
    "76AA6CB8FDD6DEB0C96161BA3E0E28E65BAA2287A7B40C1C50352A5D12951F224DB90AD7"
    "37A0B58C09640C1FB998E9C3F47FCF975E1485A504582EECD0DA2D0E5B42F60D8557F85E"
    "8AAFFD56C582251E184A341EAA3D80714E84328C065C04F97271B4505DEC3E54B4536FAC"
    "158AF72712F6BAFAF4D3E7072566651E2467EFE84ABED23DECF0ADF0BC905800830106EA"
    "3AC23218C7FD67B7D5D8F6DE5D268038F1543BA8D72A23685B76B2A765A1F1DF2033E060"
    "89F1532B65E760913ABC6D4140AA7AB2884E3D29F38D1A4B8DB2AF76EEF7B107356B2BA2"
    "02D3FBBB8181707496B10F2B8CA5ADD809DE4B7D5F86D1CDE32A09C77B3955A514015069"
    "D65B48378AE2344DF61D82B5AEA889723741E3A117F0AEB2A67986551ECC54C6208E0795"
    "5C1E845E14D2442100C3DD6983495460FB92B0124437472480579A347C357E39C798A27C"
    "1F4B75D0418FC09E709374110582EE6BD501808C04A1CC17";

// Small (256-bit) safe prime for fast unit tests; NOT cryptographically
// meaningful at this size.
const char* kSafePrimeTest256 =
    "F3831F59EF561EC1F0C3DE1DAFCA953D36133ACA9693A0C63BFFE9BB472ED7C7";

}  // namespace

// Default dual_exp: the generic interleaved (Straus) ladder with 4-bit
// windows, evaluated through this (possibly decorated) group's own mul():
// one squaring ladder over the wider exponent, and per window at most one
// multiplication by each base's digit power from a 16-entry table.
Elem Group::dual_exp(const Elem& x, const Nat& ex, const Elem& y,
                     const Nat& ey) const {
  constexpr std::size_t kWindow = 4;
  constexpr std::size_t kDigits = std::size_t{1} << kWindow;
  const std::array<const Elem*, 2> bases{&x, &y};
  const std::array<const Nat*, 2> exps{&ex, &ey};
  std::array<std::array<Elem, kDigits>, 2> table;  // table[i][d] = base_i^d
  for (std::size_t i = 0; i < 2; ++i) {
    table[i][0] = identity();
    table[i][1] = *bases[i];
    for (std::size_t d = 2; d < kDigits; ++d)
      table[i][d] = mul(table[i][d - 1], *bases[i]);
  }
  const std::size_t bits = std::max(ex.bit_length(), ey.bit_length());
  Elem acc = identity();
  bool started = false;
  for (std::size_t win = (bits + kWindow - 1) / kWindow; win-- > 0;) {
    if (started)
      for (std::size_t s = 0; s < kWindow; ++s) acc = mul(acc, acc);
    for (std::size_t i = 0; i < 2; ++i) {
      std::size_t d = 0;
      for (std::size_t b = 0; b < kWindow; ++b)
        if (exps[i]->bit(win * kWindow + b)) d |= std::size_t{1} << b;
      if (d == 0) continue;
      acc = started ? mul(acc, table[i][d]) : table[i][d];
      started = true;
    }
  }
  return acc;
}

std::unique_ptr<Group> make_group(GroupId id) {
  switch (id) {
    case GroupId::kDl1024:
      return std::make_unique<SchnorrGroup>("dl-1024",
                                            Nat::from_hex(kSafePrime1024));
    case GroupId::kDl2048:
      return std::make_unique<SchnorrGroup>("dl-2048",
                                            Nat::from_hex(kSafePrime2048));
    case GroupId::kDl3072:
      return std::make_unique<SchnorrGroup>("dl-3072",
                                            Nat::from_hex(kSafePrime3072));
    case GroupId::kEcP192:
      return std::make_unique<EcGroup>(nist_p192());
    case GroupId::kEcP224:
      return std::make_unique<EcGroup>(nist_p224());
    case GroupId::kEcP256:
      return std::make_unique<EcGroup>(nist_p256());
    case GroupId::kDlTest256:
      return std::make_unique<SchnorrGroup>("dl-test-256",
                                            Nat::from_hex(kSafePrimeTest256));
  }
  throw std::invalid_argument("make_group: unknown GroupId");
}

std::string to_string(GroupId id) { return make_group(id)->name(); }

}  // namespace ppgr::group

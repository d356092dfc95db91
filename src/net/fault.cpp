#include "net/fault.h"

#include <algorithm>
#include <cinttypes>
#include <cstring>
#include <utility>

#include "runtime/json.h"

namespace ppgr::net {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDrop:
      return "drop";
    case FaultKind::kDuplicate:
      return "duplicate";
    case FaultKind::kReorder:
      return "reorder";
    case FaultKind::kCorrupt:
      return "corrupt";
    case FaultKind::kTamper:
      return "tamper";
    case FaultKind::kDelay:
      return "delay";
    case FaultKind::kCrash:
      return "crash";
  }
  return "?";
}

const char* to_string(ChannelErrorKind kind) {
  switch (kind) {
    case ChannelErrorKind::kBadFrame:
      return "bad-frame";
    case ChannelErrorKind::kTimeout:
      return "timeout";
    case ChannelErrorKind::kGiveUp:
      return "give-up";
    case ChannelErrorKind::kPeerDead:
      return "peer-dead";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Plan spec parsing.

namespace {

[[noreturn]] void bad_spec(const std::string& spec, const std::string& why) {
  throw std::invalid_argument("parse_fault_plan: " + why + " in \"" + spec +
                              "\"");
}

double parse_prob(const std::string& spec, const std::string& key,
                  const std::string& value) {
  std::size_t used = 0;
  double p = 0.0;
  try {
    p = std::stod(value, &used);
  } catch (const std::exception&) {
    bad_spec(spec, "non-numeric value for " + key);
  }
  if (used != value.size()) bad_spec(spec, "trailing junk after " + key);
  if (p < 0.0 || p > 1.0) bad_spec(spec, key + " outside [0,1]");
  return p;
}

double parse_seconds(const std::string& spec, const std::string& key,
                     const std::string& value) {
  std::size_t used = 0;
  double s = 0.0;
  try {
    s = std::stod(value, &used);
  } catch (const std::exception&) {
    bad_spec(spec, "non-numeric value for " + key);
  }
  if (used != value.size()) bad_spec(spec, "trailing junk after " + key);
  if (s < 0.0) bad_spec(spec, key + " must be >= 0");
  return s;
}

std::uint64_t parse_u64(const std::string& spec, const std::string& key,
                        const std::string& value) {
  if (value.empty()) bad_spec(spec, "empty value for " + key);
  std::uint64_t v = 0;
  for (const char c : value) {
    if (c < '0' || c > '9') bad_spec(spec, "non-integer value for " + key);
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return v;
}

}  // namespace

FaultPlanConfig parse_fault_plan(const std::string& spec) {
  FaultPlanConfig cfg;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string item = spec.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    pos = comma == std::string::npos ? spec.size() : comma + 1;
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) bad_spec(spec, "missing '=' in \"" + item + "\"");
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    if (key == "seed") {
      cfg.seed = parse_u64(spec, key, value);
    } else if (key == "drop") {
      cfg.drop = parse_prob(spec, key, value);
    } else if (key == "duplicate" || key == "dup") {
      cfg.duplicate = parse_prob(spec, key, value);
    } else if (key == "reorder") {
      cfg.reorder = parse_prob(spec, key, value);
    } else if (key == "corrupt") {
      cfg.corrupt = parse_prob(spec, key, value);
    } else if (key == "tamper") {
      cfg.tamper = parse_prob(spec, key, value);
    } else if (key == "delay") {
      cfg.delay = parse_prob(spec, key, value);
    } else if (key == "delay_s") {
      cfg.delay_spike_s = parse_seconds(spec, key, value);
    } else if (key == "phase") {
      const std::uint64_t p = parse_u64(spec, key, value);
      if (p > 3) bad_spec(spec, "phase must be 0 (all), 1, 2 or 3");
      cfg.only_phase = static_cast<int>(p);
    } else if (key == "retries") {
      cfg.max_retries = static_cast<std::size_t>(parse_u64(spec, key, value));
    } else if (key == "backoff") {
      cfg.backoff_base_s = parse_seconds(spec, key, value);
    } else if (key == "deadline") {
      cfg.deadline_s = parse_seconds(spec, key, value);
    } else if (key == "crash") {
      const std::size_t at = value.find('@');
      if (at == std::string::npos)
        bad_spec(spec, "crash wants <party>@<phase>");
      const std::uint64_t party = parse_u64(spec, key, value.substr(0, at));
      const std::uint64_t phase = parse_u64(spec, key, value.substr(at + 1));
      if (phase < 1 || phase > 3)
        bad_spec(spec, "crash phase must be 1, 2 or 3");
      cfg.crashes.push_back(
          CrashPoint{static_cast<std::size_t>(party),
                     static_cast<runtime::Phase>(phase)});
    } else {
      bad_spec(spec, "unknown key \"" + key + "\"");
    }
  }
  return cfg;
}

// ---------------------------------------------------------------------------
// FaultPlan.

namespace {

/// Packs the decision coordinates into the 64-bit stream id:
/// kind:8 | round:16 | src:8 | dst:8 | msg:16 | attempt:8. Coordinates are
/// masked to their field width, so extremely long runs wrap deterministically
/// instead of colliding unpredictably.
std::uint64_t fault_stream_id(FaultKind kind, std::size_t round,
                              std::size_t src, std::size_t dst,
                              std::size_t msg_index, std::size_t attempt) {
  return (static_cast<std::uint64_t>(kind) << 56) |
         (static_cast<std::uint64_t>(round & 0xffffu) << 40) |
         (static_cast<std::uint64_t>(src & 0xffu) << 32) |
         (static_cast<std::uint64_t>(dst & 0xffu) << 24) |
         (static_cast<std::uint64_t>(msg_index & 0xffffu) << 8) |
         static_cast<std::uint64_t>(attempt & 0xffu);
}

/// Uniform double in [0,1) from the stream's first 53 bits — the draw (and
/// thus the whole fault schedule) is a pure function of the stream id.
bool fires(const mpz::StreamFamily& family, FaultKind kind, std::size_t round,
           std::size_t src, std::size_t dst, std::size_t msg_index,
           std::size_t attempt, double p, std::uint64_t* entropy = nullptr) {
  if (p <= 0.0) return false;
  mpz::ChaChaRng rng =
      family.stream(fault_stream_id(kind, round, src, dst, msg_index, attempt));
  const double u =
      static_cast<double>(rng.next_u64() >> 11) * 0x1.0p-53;
  if (entropy != nullptr) *entropy = rng.next_u64();
  return u < p;
}

}  // namespace

FaultPlan::FaultPlan(FaultPlanConfig cfg)
    : cfg_(std::move(cfg)),
      family_([&] {
        mpz::ChaChaRng parent{cfg_.seed};
        return mpz::StreamFamily{parent};
      }()) {}

bool FaultPlan::active_in(runtime::Phase phase) const {
  if (cfg_.only_phase == 0) return true;
  return static_cast<int>(phase) == cfg_.only_phase;
}

FaultDecision FaultPlan::decide(runtime::Phase phase, std::size_t round,
                                std::size_t src, std::size_t dst,
                                std::size_t msg_index,
                                std::size_t attempt) const {
  FaultDecision d;
  if (!active_in(phase)) return d;
  d.drop = fires(family_, FaultKind::kDrop, round, src, dst, msg_index,
                 attempt, cfg_.drop);
  d.duplicate = fires(family_, FaultKind::kDuplicate, round, src, dst,
                      msg_index, attempt, cfg_.duplicate);
  d.reorder = fires(family_, FaultKind::kReorder, round, src, dst, msg_index,
                    attempt, cfg_.reorder);
  std::uint64_t corrupt_entropy = 0;
  d.corrupt = fires(family_, FaultKind::kCorrupt, round, src, dst, msg_index,
                    attempt, cfg_.corrupt, &corrupt_entropy);
  std::uint64_t tamper_entropy = 0;
  d.tamper = fires(family_, FaultKind::kTamper, round, src, dst, msg_index,
                   attempt, cfg_.tamper, &tamper_entropy);
  d.delay = fires(family_, FaultKind::kDelay, round, src, dst, msg_index,
                  attempt, cfg_.delay);
  // Raw entropy; the Router reduces it modulo the payload bit count. Tamper
  // takes precedence over corrupt when both fire on one attempt.
  d.flip_bit = static_cast<std::size_t>(d.tamper ? tamper_entropy
                                                 : corrupt_entropy);
  return d;
}

std::vector<std::size_t> FaultPlan::crashes_at(runtime::Phase phase) const {
  std::vector<std::size_t> parties;
  for (const CrashPoint& c : cfg_.crashes)
    if (c.phase == phase) parties.push_back(c.party);
  std::sort(parties.begin(), parties.end());
  parties.erase(std::unique(parties.begin(), parties.end()), parties.end());
  return parties;
}

double FaultPlan::effective_deadline(double link_latency_s) const {
  if (cfg_.deadline_s > 0.0) return cfg_.deadline_s;
  // One round trip per allowed attempt plus the full backoff ladder
  // (backoff doubles per retry: base * (2^retries - 1)).
  const double attempts = static_cast<double>(cfg_.max_retries + 1);
  double backoff_total = 0.0;
  double step = cfg_.backoff_base_s;
  for (std::size_t i = 0; i < cfg_.max_retries; ++i) {
    backoff_total += step;
    step *= 2.0;
  }
  return attempts * 2.0 * link_latency_s + backoff_total;
}

// ---------------------------------------------------------------------------
// CRC32 + frame codec.

namespace {

std::uint32_t load_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

void store_u32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  // Bitwise CRC-32 (IEEE 802.3, reflected 0xEDB88320). Frames are small and
  // the path only runs under an installed fault plan, so no table needed.
  std::uint32_t crc = 0xffffffffu;
  for (const std::uint8_t byte : data) {
    crc ^= byte;
    for (int i = 0; i < 8; ++i)
      crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
  }
  return crc ^ 0xffffffffu;
}

std::vector<std::uint8_t> encode_frame(std::uint32_t seq,
                                       std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> out(kFrameHeaderBytes + payload.size());
  store_u32(out.data(),
            static_cast<std::uint32_t>(kFrameHeaderBytes + payload.size()));
  store_u32(out.data() + 4, seq);
  store_u32(out.data() + 8, crc32(payload));
  if (!payload.empty())  // an empty span may carry a null data()
    std::memcpy(out.data() + kFrameHeaderBytes, payload.data(),
                payload.size());
  return out;
}

Frame decode_frame(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kFrameHeaderBytes)
    throw ChannelError(ChannelErrorKind::kBadFrame, 0, 0, 0,
                       "decode_frame: truncated frame (" +
                           std::to_string(bytes.size()) + " bytes < " +
                           std::to_string(kFrameHeaderBytes) +
                           "-byte header)");
  const std::uint32_t declared = load_u32(bytes.data());
  if (declared != bytes.size())
    throw ChannelError(
        ChannelErrorKind::kBadFrame, 0, 0, 0,
        "decode_frame: length field " + std::to_string(declared) +
            " disagrees with buffer size " + std::to_string(bytes.size()) +
            (declared < bytes.size() ? " (over-long)" : " (truncated)"));
  Frame frame;
  frame.seq = load_u32(bytes.data() + 4);
  frame.payload.assign(bytes.begin() + kFrameHeaderBytes, bytes.end());
  frame.crc_ok = crc32(frame.payload) == load_u32(bytes.data() + 8);
  return frame;
}

// ---------------------------------------------------------------------------
// Report export.

std::string FaultReport::to_json() const {
  std::string out;
  out += "{\n  \"schema\": \"ppgr.fault.v1\",\n  \"plan\": {\n";
  runtime::appendf(out, "    \"seed\": %" PRIu64 ",\n", plan.seed);
  const auto prob = [&out](const char* name, double v) {
    runtime::appendf(out, "    \"%s\": %.6f,\n", name, v);
  };
  prob("drop", plan.drop);
  prob("duplicate", plan.duplicate);
  prob("reorder", plan.reorder);
  prob("corrupt", plan.corrupt);
  prob("tamper", plan.tamper);
  prob("delay", plan.delay);
  prob("delay_spike_s", plan.delay_spike_s);
  runtime::appendf(out, "    \"only_phase\": %d,\n    \"max_retries\": %zu,\n",
                   plan.only_phase, plan.max_retries);
  prob("backoff_base_s", plan.backoff_base_s);
  prob("deadline_s", plan.deadline_s);
  out += "    \"crashes\": [";
  bool first = true;
  for (const CrashPoint& c : plan.crashes) {
    runtime::appendf(out, "%s{\"party\": %zu, \"phase\": \"%s\"}",
                     first ? "" : ", ", c.party,
                     runtime::phase_name(c.phase));
    first = false;
  }
  out += "]\n  },\n  \"counters\": {\n";
  for (std::size_t k = 0; k < kFaultKindCount; ++k)
    runtime::appendf(out, "    \"injected_%s\": %" PRIu64 ",\n",
                     to_string(static_cast<FaultKind>(k)), stats.injected[k]);
  runtime::appendf(out,
                   "    \"retransmits\": %" PRIu64 ",\n"
                   "    \"crc_detected\": %" PRIu64 ",\n"
                   "    \"duplicates_dropped\": %" PRIu64 ",\n"
                   "    \"reorders_healed\": %" PRIu64 ",\n"
                   "    \"timeouts\": %" PRIu64 ",\n"
                   "    \"giveups\": %" PRIu64 "\n  },\n",
                   stats.retransmits, stats.crc_detected,
                   stats.duplicates_dropped, stats.reorders_healed,
                   stats.timeouts, stats.giveups);
  out += "  \"events\": [";
  first = true;
  for (const FaultEvent& e : events) {
    out += first ? "\n" : ",\n";
    first = false;
    runtime::appendf(out,
                     "    {\"kind\": \"%s\", \"round\": %zu, \"src\": %zu, "
                     "\"dst\": %zu, \"attempt\": %zu}",
                     to_string(e.kind), e.round, e.src, e.dst, e.attempt);
  }
  out += events.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

}  // namespace ppgr::net

// The transport seam behind net::Router (DESIGN.md §5f).
//
// The Router is the single choke point every inter-party message goes
// through. Where the bytes physically travel is this interface's job:
//
//  - no transport installed (Router::Config::transport == nullptr): the
//    in-process path — payloads move through the Router's own FIFO
//    mailboxes. This is the CI-deterministic default; its behavior (wire
//    bytes, exports, fault injection) is byte-identical to every build
//    before the seam existed.
//
//  - a Transport installed: the Router keeps doing exactly what it is for
//    (recording the exact serialized bytes of what this process sends in
//    the TraceRecorder, phase/round bookkeeping) but hands payloads for
//    non-local destinations to the transport and blocks on it for payloads
//    from non-local sources. net::tcp::TcpTransport is the real-socket
//    implementation (one OS process per party over length-delimited TCP
//    streams).
//
// Either way the comm report is computed from the trace after the run
// (net::comm_report), so a process's flows carry the same virtual-time
// segments as the in-process run's.
//
// Contract: `local(p)` partitions the party ids; the protocol driver in
// this process only ever sends *from* local parties and receives *to*
// local parties. Transports carry opaque payload bytes — framing, CRC,
// sequencing and handshake are the transport's business — and surface
// every failure as a typed net::ChannelError (never a hang: receives are
// bounded by the transport's read timeout).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/fault.h"

namespace ppgr::net {

class Transport {
 public:
  virtual ~Transport() = default;

  /// True when party p's protocol state machine executes in this process.
  [[nodiscard]] virtual bool local(std::size_t party) const = 0;

  /// Ships one payload on (src local, dst non-local). Delivery is FIFO per
  /// directed link. Throws ChannelError on transport failure.
  virtual void send(std::size_t src, std::size_t dst,
                    const std::vector<std::uint8_t>& payload) = 0;

  /// Blocks for the next payload on (src non-local, dst local). FIFO per
  /// directed link. Throws ChannelError — kTimeout when the read deadline
  /// expires, kPeerDead when the peer closed, kBadFrame on a corrupt or
  /// out-of-sequence frame.
  [[nodiscard]] virtual std::vector<std::uint8_t> receive(std::size_t src,
                                                          std::size_t dst) = 0;

  /// Cumulative frame-level counters in the FaultStats taxonomy (CRC
  /// rejects -> crc_detected, read timeouts -> timeouts, connect-retry
  /// attempts -> retransmits, connect give-ups -> giveups). Merged into
  /// Router::fault_report() so the ppgr.fault.v1 export covers real-socket
  /// runs too.
  [[nodiscard]] virtual FaultStats stats() const = 0;
};

}  // namespace ppgr::net

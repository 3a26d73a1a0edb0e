#pragma once
/// \file protocol.hpp
/// \brief Link-technology profiles: fiber, Ethernet and the low-power IoT
///        protocols the paper says are "inevitable in edge computing".
///
/// Paper section III-B: edge gateways differ from DCC gateways precisely in
/// the network interfaces they support — Zigbee, LoRa, Sigfox, EnOcean on
/// the edge side, optic fiber on the cloud side. Each profile captures the
/// technology's characteristic bandwidth, per-hop latency and payload limit
/// with figures from the protocol specifications (Barker & Hammoudeh 2017).

#include <string>

#include "df3/util/units.hpp"

namespace df3::net {

/// Static characteristics of one link technology.
struct LinkProfile {
  std::string name = "ethernet-lan";
  util::BitsPerSecond bandwidth = util::gbps(1.0);
  /// One-way propagation + protocol stack latency per hop.
  util::Seconds base_latency = util::seconds(0.0002);
  /// Maximum application payload per frame; larger messages fragment and
  /// pay the per-frame overhead multiple times.
  util::Bytes max_payload = util::bytes(65536.0);
  /// Protocol overhead added per frame (headers, preamble), in bytes.
  util::Bytes frame_overhead = util::bytes(66.0);
  /// Duty-cycle ceiling in [0,1]: LPWAN regulations (e.g. 1% in EU868)
  /// throttle sustained throughput below raw bandwidth.
  double duty_cycle = 1.0;

  /// Effective serialization time for an application payload of `size`,
  /// including fragmentation, per-frame overhead and duty-cycle throttling.
  [[nodiscard]] util::Seconds serialization_time(util::Bytes size) const;

  /// End-to-end one-hop delay for a payload (serialization + latency).
  [[nodiscard]] util::Seconds one_hop_delay(util::Bytes size) const;

  bool operator==(const LinkProfile&) const = default;
};

// --- catalogue -------------------------------------------------------------

/// Metro optic fiber to the operator's backbone (Q.rad uplink).
[[nodiscard]] LinkProfile fiber_wan();
/// In-building wired Ethernet (Q.rad interconnect; boiler backplane is the
/// 10 Gb/s variant).
[[nodiscard]] LinkProfile ethernet_lan();
[[nodiscard]] LinkProfile ethernet_10g();
/// IEEE 802.15.4 mesh (ZigBee): 250 kb/s, small frames.
[[nodiscard]] LinkProfile zigbee();
/// In-building 802.11n Wi-Fi: ~50 Mb/s effective — the path for payload-
/// heavy edge clients (phones, tablets) that LPWAN radios cannot carry.
[[nodiscard]] LinkProfile wifi();
/// LoRaWAN SF7-ish: ~5.5 kb/s, 1% duty cycle, 222 B payload.
[[nodiscard]] LinkProfile lora();
/// Sigfox: 100 b/s uplink, 12 B payload — telemetry only.
[[nodiscard]] LinkProfile sigfox();
/// EnOcean energy-harvesting switches: 125 kb/s, tiny frames.
[[nodiscard]] LinkProfile enocean();
/// Residential Internet access (the paper's "Internet requests" path when
/// no fiber is present).
[[nodiscard]] LinkProfile adsl_wan();

}  // namespace df3::net

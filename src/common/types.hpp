// Core value types shared across the irmcsim library.
#pragma once

#include <cstdint>
#include <limits>

namespace irmc {

/// Simulated time in switch-clock cycles.
using Cycles = std::int64_t;

/// Sentinel for "not yet happened / unbounded".
inline constexpr Cycles kNever = std::numeric_limits<Cycles>::max();

/// Identifier of a processing node (host). Nodes are numbered 0..N-1
/// across the whole system.
using NodeId = std::int32_t;

/// Identifier of a switch. Switches are numbered 0..S-1.
using SwitchId = std::int32_t;

/// Port index within a switch (0..ports-1).
using PortId = std::int32_t;

inline constexpr NodeId kInvalidNode = -1;
inline constexpr SwitchId kInvalidSwitch = -1;
inline constexpr PortId kInvalidPort = -1;

/// The three enhanced multicasting schemes compared by the paper, plus
/// the traditional software binomial baseline of its Section 3.1.
enum class SchemeKind : std::uint8_t {
  kUnicastBinomial,  ///< multi-phase software multicast over unicast sends
  kNiKBinomial,      ///< smart-NI FPFS forwarding over a k-binomial tree
  kTreeWorm,         ///< single bit-string multidestination worm (switch HW)
  kPathWorm,         ///< MDP-LG multi-drop path worms, multi-phase (switch HW)
};

/// Every scheme, in the paper's column order (reports, panels, sweeps).
inline constexpr SchemeKind kAllSchemes[] = {
    SchemeKind::kUnicastBinomial, SchemeKind::kNiKBinomial,
    SchemeKind::kTreeWorm, SchemeKind::kPathWorm};

/// Stable display name for reports and CSV headers.
constexpr const char* ToString(SchemeKind k) {
  switch (k) {
    case SchemeKind::kUnicastBinomial: return "uni-binomial";
    case SchemeKind::kNiKBinomial: return "ni-kbinomial";
    case SchemeKind::kTreeWorm: return "tree-worm";
    case SchemeKind::kPathWorm: return "path-worm";
  }
  return "?";
}

/// Identifier-safe variant (gtest parameterized test names, symbols).
constexpr const char* ToIdent(SchemeKind k) {
  switch (k) {
    case SchemeKind::kUnicastBinomial: return "uni_binomial";
    case SchemeKind::kNiKBinomial: return "ni_kbinomial";
    case SchemeKind::kTreeWorm: return "tree_worm";
    case SchemeKind::kPathWorm: return "path_worm";
  }
  return "unknown";
}

}  // namespace irmc

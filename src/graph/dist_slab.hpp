// dist_slab.hpp — compact storage widths for distance rows.
//
// Dist is uint32 everywhere above the storage layer, but a distance row only
// needs ceil(log2(diameter + 2)) bits: a torus row whose entries never exceed
// 200 wastes 3 of every 4 bytes in a uint32 slab. This header makes the
// width a *storage* decision — DistanceMatrix and TargetDistanceCache pack
// rows at uint8/uint16/uint32 and widen on read — without changing the Dist
// type the routers and RouteService consume.
//
// Encoding: each narrow width reserves its numeric maximum as the infinity
// sentinel (0xFF for u8, 0xFFFF for u16), so max_finite(width) is max - 1.
// Narrowing a value above max_finite is a *saturation* — the storage was
// declared too narrow for the graph — and the oracles turn it into a loud
// std::invalid_argument instead of a silently wrong distance.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "graph/graph.hpp"
#include "runtime/assert.hpp"

namespace nav::graph {

/// Bytes per stored distance entry. The enum value IS the byte width.
enum class DistWidth : std::uint8_t { kU8 = 1, kU16 = 2, kU32 = 4 };

[[nodiscard]] constexpr std::size_t width_bytes(DistWidth w) noexcept {
  return static_cast<std::size_t>(w);
}

/// The stored bit pattern that decodes to kInfDist at this width.
[[nodiscard]] constexpr std::uint32_t narrow_inf(DistWidth w) noexcept {
  switch (w) {
    case DistWidth::kU8: return 0xFFu;
    case DistWidth::kU16: return 0xFFFFu;
    default: return kInfDist;
  }
}

/// Largest finite distance the width can hold (one under the sentinel).
[[nodiscard]] constexpr Dist max_finite(DistWidth w) noexcept {
  return w == DistWidth::kU32 ? kInfDist - 1 : narrow_inf(w) - 1;
}

/// Smallest width whose max_finite covers `bound` (a diameter upper bound).
[[nodiscard]] constexpr DistWidth width_for_bound(Dist bound) noexcept {
  if (bound <= max_finite(DistWidth::kU8)) return DistWidth::kU8;
  if (bound <= max_finite(DistWidth::kU16)) return DistWidth::kU16;
  return DistWidth::kU32;
}

/// Spec token for the width ("u8" | "u16" | "u32").
[[nodiscard]] constexpr const char* width_token(DistWidth w) noexcept {
  switch (w) {
    case DistWidth::kU8: return "u8";
    case DistWidth::kU16: return "u16";
    default: return "u32";
  }
}

/// Parses a width spec token; `spec` is the enclosing spec string named in
/// the std::invalid_argument on failure.
[[nodiscard]] inline DistWidth parse_dist_width(const std::string& token,
                                                const std::string& spec) {
  if (token == "u8") return DistWidth::kU8;
  if (token == "u16") return DistWidth::kU16;
  if (token == "u32") return DistWidth::kU32;
  throw std::invalid_argument("bad width '" + token +
                              "' (u8 | u16 | u32 | auto) in spec: " + spec);
}

namespace detail {

template <typename Narrow>
void widen_row_impl(const std::uint8_t* src, std::span<Dist> dst) {
  const auto* packed = reinterpret_cast<const Narrow*>(src);
  constexpr Narrow inf = static_cast<Narrow>(~Narrow{0});
  for (std::size_t i = 0; i < dst.size(); ++i) {
    dst[i] = packed[i] == inf ? kInfDist : static_cast<Dist>(packed[i]);
  }
}

template <typename Narrow>
[[nodiscard]] bool narrow_row_impl(std::span<const Dist> src,
                                   std::uint8_t* dst) {
  auto* packed = reinterpret_cast<Narrow*>(dst);
  constexpr Narrow inf = static_cast<Narrow>(~Narrow{0});
  constexpr Dist top = static_cast<Dist>(inf) - 1;
  bool saturated = false;
  for (std::size_t i = 0; i < src.size(); ++i) {
    if (src[i] == kInfDist) {
      packed[i] = inf;
    } else if (src[i] > top) {
      saturated = true;
      packed[i] = inf;
    } else {
      packed[i] = static_cast<Narrow>(src[i]);
    }
  }
  return saturated;
}

}  // namespace detail

/// Decodes one packed row (dst.size() entries at `width`) into Dist values;
/// the sentinel becomes kInfDist. u32 rows should be read in place instead.
inline void widen_row(const std::uint8_t* src, DistWidth width,
                      std::span<Dist> dst) {
  switch (width) {
    case DistWidth::kU8:
      detail::widen_row_impl<std::uint8_t>(src, dst);
      break;
    case DistWidth::kU16:
      detail::widen_row_impl<std::uint16_t>(src, dst);
      break;
    default:
      detail::widen_row_impl<std::uint32_t>(src, dst);
      break;
  }
}

/// Decodes a single packed entry.
[[nodiscard]] inline Dist widen_entry(const std::uint8_t* row, DistWidth width,
                                      std::size_t i) noexcept {
  switch (width) {
    case DistWidth::kU8: {
      const std::uint8_t v = row[i];
      return v == 0xFFu ? kInfDist : static_cast<Dist>(v);
    }
    case DistWidth::kU16: {
      const std::uint16_t v = reinterpret_cast<const std::uint16_t*>(row)[i];
      return v == 0xFFFFu ? kInfDist : static_cast<Dist>(v);
    }
    default:
      return reinterpret_cast<const Dist*>(row)[i];
  }
}

/// Packs a Dist row at `width` into dst (src.size() * width_bytes bytes).
/// Returns true when any finite value exceeded max_finite(width) — such
/// entries are stored as the sentinel, and the caller MUST treat the row as
/// invalid (the oracles throw).
[[nodiscard]] inline bool narrow_row(std::span<const Dist> src, DistWidth width,
                                     std::uint8_t* dst) {
  switch (width) {
    case DistWidth::kU8:
      return detail::narrow_row_impl<std::uint8_t>(src, dst);
    case DistWidth::kU16:
      return detail::narrow_row_impl<std::uint16_t>(src, dst);
    default:
      return detail::narrow_row_impl<std::uint32_t>(src, dst);
  }
}

}  // namespace nav::graph

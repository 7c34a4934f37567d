// Fundamental fixed-width type aliases used across the library.
#pragma once

#include <cstdint>
#include <cstddef>

namespace sch {

using u8 = std::uint8_t;
using u16 = std::uint16_t;
using u32 = std::uint32_t;
using u64 = std::uint64_t;
using i8 = std::int8_t;
using i16 = std::int16_t;
using i32 = std::int32_t;
using i64 = std::int64_t;
using usize = std::size_t;

/// Machine word of the modeled core (RV32).
using Word = u32;
/// Sign view of a machine word.
using SWord = i32;
/// FP register container: 64-bit, NaN-boxed for narrower formats.
using FReg = u64;
/// Simulation time in core clock cycles.
using Cycle = u64;
/// "No event pending": the next_event() answer of a component whose state
/// cannot change on its own (see the activity contract in sim/cluster.hpp).
inline constexpr Cycle kNever = ~Cycle{0};
/// Byte address in the modeled address space.
using Addr = u32;

} // namespace sch

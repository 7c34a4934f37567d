// Predecoded execution records. Decoding resolves each instruction's static
// properties once at program-load time -- metadata pointer, a pre-classified
// execution handler id (mnemonic specials like lui/jal/lb folded in), and
// the precomputed immediate/target the handler needs -- so the per-step hot
// paths of the ISS and the cycle-level core dispatch through a handler table
// instead of re-deriving everything from the mnemonic on every execution.
#pragma once

#include <vector>

#include "isa/instr.hpp"
#include "isa/opcode.hpp"

namespace sch::isa {

/// Hot-path dispatch classes. Unlike ExecClass, mnemonic special cases that
/// the execution engines would otherwise re-test per step (lui vs auipc,
/// jal vs jalr, I- vs R-format ALU, load sign-extension width, scfgw vs
/// scfgr, ecall/ebreak/fence) are distinct handlers.
enum class ExecHandler : u8 {
  kInvalid = 0,
  kLui,
  kAuipc,
  kIntAluImm,   // I-format ALU (addi/slti/../shift-immediates)
  kIntAluReg,   // R-format ALU
  kIntMul,
  kIntDiv,
  kJal,
  kJalr,
  kBranch,
  kLoad,        // lw/lbu/lhu (no sign extension)
  kLoadSext8,   // lb
  kLoadSext16,  // lh
  kStore,
  kCsr,
  kEcall,
  kEbreak,
  kFence,
  kFpLoad,
  kFpStore,
  kFpMac,
  kFpDiv,
  kFpSqrt,
  kFpCmp,
  kFpCvtF2I,
  kFpCvtI2F,
  kFrep,
  kScfgW,
  kScfgR,
  kDmaSrc,
  kDmaDst,
  kDmaStr,
  kDmaCpy,
  kDmaCpy2d,
  kDmaStat,
  kCount,
};

/// True when `h` can never transfer control or halt the machine cleanly:
/// executing it advances the pc by exactly 4 (it may still fault, which the
/// engines detect through their halt flag). The superblock pass strings
/// runs of linear instructions together so the hot loops execute them
/// without per-instruction re-validation.
[[nodiscard]] constexpr bool exec_handler_linear(ExecHandler h) {
  switch (h) {
    case ExecHandler::kInvalid:
    case ExecHandler::kJal:
    case ExecHandler::kJalr:
    case ExecHandler::kBranch:
    case ExecHandler::kFrep:
    case ExecHandler::kEcall:
    case ExecHandler::kEbreak:
      return false;
    default:
      return true;
  }
}

/// PredecodedInstr::flags bits, resolved by the whole-program superblock
/// pass (link_superblocks); the per-instruction predecode() cannot see
/// neighbors and leaves them clear.
namespace preflag {
/// frep marker whose body was statically validated (non-empty, inside the
/// text segment, FP-domain only, no nesting). A clear bit on a kFrep record
/// means executing it must fail; the engines re-walk the body then to
/// produce the exact offset-naming diagnostic.
inline constexpr u8 kFrepBodyOk = 1u << 0;
/// dmstat whose next record is a conditional branch back to it: the
/// `dmstat rd, sel; b<cond> ..., <dmstat>` DMA poll loop. The cycle engine
/// parks a core spinning here (sim::IntCore) until its DMA counts move.
inline constexpr u8 kDmaPollSite = 1u << 1;
} // namespace preflag

/// Per-instruction record resolved once at load.
struct PredecodedInstr {
  /// Cached metadata (never null; kInvalid's sentinel entry for bad words).
  const MnemonicInfo* mi = nullptr;
  ExecHandler handler = ExecHandler::kInvalid;
  /// Handler-specific precomputed immediate: the full upper-immediate value
  /// for lui/auipc (imm << 12), the PC-relative delta for branches/jal, the
  /// CSR address for CSR ops, otherwise the sign-extended immediate.
  i32 aux = 0;
  bool fp_domain = false;
  u8 mem_bytes = 0;
  /// preflag:: bits (superblock pass).
  u8 flags = 0;
  /// Straight-line superblock length starting at this instruction: this
  /// record and the next run_len-1 are all linear (exec_handler_linear) and
  /// inside the text segment. 0 for non-linear records (superblock pass).
  u32 run_len = 0;
  /// Taken-target text index for kJal/kBranch records; 0xFFFF'FFFF
  /// (Program::kNoIndex) when the target leaves the text segment or is
  /// misaligned (superblock pass).
  u32 target_idx = 0xFFFF'FFFF;
};

/// Resolve the execution record for one decoded instruction.
[[nodiscard]] PredecodedInstr predecode(const Instr& in);

/// Whole-program superblock pass over a predecoded stream: computes
/// straight-line run lengths, resolves branch/jal taken-target indices, and
/// statically validates frep bodies, so the execution engines validate each
/// static block once instead of re-checking every dynamic instruction.
/// Program::predecode() runs it after the per-instruction pass; any in-place
/// program edit must rebuild via Program::predecode() (full rebuild -- the
/// invalidation hook -- so stale block metadata can never survive an edit).
void link_superblocks(std::vector<PredecodedInstr>& pre);

} // namespace sch::isa

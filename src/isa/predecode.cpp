#include "isa/predecode.hpp"

namespace sch::isa {
namespace {

ExecHandler classify(const Instr& in, const MnemonicInfo& mi) {
  switch (mi.exec) {
    case ExecClass::kIntAlu:
      if (in.mn == Mnemonic::kLui) return ExecHandler::kLui;
      if (in.mn == Mnemonic::kAuipc) return ExecHandler::kAuipc;
      return mi.fmt == Format::kI ? ExecHandler::kIntAluImm
                                  : ExecHandler::kIntAluReg;
    case ExecClass::kIntMul: return ExecHandler::kIntMul;
    case ExecClass::kIntDiv: return ExecHandler::kIntDiv;
    case ExecClass::kJump:
      return in.mn == Mnemonic::kJal ? ExecHandler::kJal : ExecHandler::kJalr;
    case ExecClass::kBranch: return ExecHandler::kBranch;
    case ExecClass::kLoad:
      if (in.mn == Mnemonic::kLb) return ExecHandler::kLoadSext8;
      if (in.mn == Mnemonic::kLh) return ExecHandler::kLoadSext16;
      return ExecHandler::kLoad;
    case ExecClass::kStore: return ExecHandler::kStore;
    case ExecClass::kCsr: return ExecHandler::kCsr;
    case ExecClass::kSystem:
      if (in.mn == Mnemonic::kEcall) return ExecHandler::kEcall;
      if (in.mn == Mnemonic::kEbreak) return ExecHandler::kEbreak;
      return ExecHandler::kFence;
    case ExecClass::kFpLoad: return ExecHandler::kFpLoad;
    case ExecClass::kFpStore: return ExecHandler::kFpStore;
    case ExecClass::kFpMac: return ExecHandler::kFpMac;
    case ExecClass::kFpDiv: return ExecHandler::kFpDiv;
    case ExecClass::kFpSqrt: return ExecHandler::kFpSqrt;
    case ExecClass::kFpCmp: return ExecHandler::kFpCmp;
    case ExecClass::kFpCvtF2I: return ExecHandler::kFpCvtF2I;
    case ExecClass::kFpCvtI2F: return ExecHandler::kFpCvtI2F;
    case ExecClass::kFrep: return ExecHandler::kFrep;
    case ExecClass::kScfg:
      return in.mn == Mnemonic::kScfgw ? ExecHandler::kScfgW
                                       : ExecHandler::kScfgR;
    case ExecClass::kDma:
      switch (in.mn) {
        case Mnemonic::kDmSrc: return ExecHandler::kDmaSrc;
        case Mnemonic::kDmDst: return ExecHandler::kDmaDst;
        case Mnemonic::kDmStr: return ExecHandler::kDmaStr;
        case Mnemonic::kDmCpy: return ExecHandler::kDmaCpy;
        case Mnemonic::kDmCpy2d: return ExecHandler::kDmaCpy2d;
        default: return ExecHandler::kDmaStat;
      }
  }
  return ExecHandler::kInvalid;
}

i32 precompute_aux(const Instr& in, ExecHandler h) {
  switch (h) {
    case ExecHandler::kLui:
    case ExecHandler::kAuipc:
      return static_cast<i32>(static_cast<u32>(in.imm) << 12);
    default:
      return in.imm;
  }
}

} // namespace

PredecodedInstr predecode(const Instr& in) {
  PredecodedInstr p;
  p.mi = &info(in.mn);
  if (!in.valid()) return p; // kInvalid handler, sentinel metadata
  p.handler = classify(in, *p.mi);
  p.aux = precompute_aux(in, p.handler);
  p.fp_domain = p.mi->fp_domain;
  p.mem_bytes = p.mi->mem_bytes;
  return p;
}

void link_superblocks(std::vector<PredecodedInstr>& pre) {
  const usize n = pre.size();
  constexpr u32 kNoIndex = 0xFFFF'FFFF;

  // Backward pass: straight-line run lengths.
  u32 run = 0;
  for (usize i = n; i-- > 0;) {
    run = exec_handler_linear(pre[i].handler) ? run + 1 : 0;
    pre[i].run_len = run;
  }

  for (usize i = 0; i < n; ++i) {
    PredecodedInstr& p = pre[i];
    switch (p.handler) {
      case ExecHandler::kJal:
      case ExecHandler::kBranch: {
        // aux is the pc-relative byte delta of the taken path.
        const i64 t = static_cast<i64>(i) * 4 + p.aux;
        p.target_idx = (t >= 0 && t < static_cast<i64>(n) * 4 && (t & 3) == 0)
                           ? static_cast<u32>(t >> 2)
                           : kNoIndex;
        break;
      }
      case ExecHandler::kFrep: {
        // Static body validation, once per site: non-empty, fully inside
        // the text segment, FP-domain only, no nested frep.
        const u32 body = static_cast<u32>(p.aux);
        bool ok = body != 0 && i + body < n;
        for (u32 b = 1; ok && b <= body; ++b) {
          ok = pre[i + b].fp_domain &&
               pre[i + b].handler != ExecHandler::kFrep;
        }
        if (ok) p.flags |= preflag::kFrepBodyOk;
        break;
      }
      default:
        break;
    }
  }

  // DMA poll sites need the branch's target_idx, resolved above.
  for (usize i = 0; i + 1 < n; ++i) {
    if (pre[i].handler == ExecHandler::kDmaStat &&
        pre[i + 1].handler == ExecHandler::kBranch &&
        pre[i + 1].target_idx == i) {
      pre[i].flags |= preflag::kDmaPollSite;
    }
  }
}

} // namespace sch::isa

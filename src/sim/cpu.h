// CPU register state and fault records of the simulated core.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "isa/isa.h"
#include "sim/policy.h"

namespace tytan::sim {

/// Architected register file: eight GPRs (r7 = SP), EIP, EFLAGS.  The paper
/// names EIP and EFLAGS explicitly (§4, "Interrupting secure tasks").
struct CpuState {
  std::array<std::uint32_t, isa::kNumGprs> regs{};
  std::uint32_t eip = 0;
  std::uint32_t eflags = isa::kFlagIF;

  [[nodiscard]] std::uint32_t sp() const { return regs[isa::kSpIndex]; }
  void set_sp(std::uint32_t v) { regs[isa::kSpIndex] = v; }

  [[nodiscard]] bool flag(std::uint32_t bit) const { return (eflags & bit) != 0; }
  void set_flag(std::uint32_t bit, bool value) {
    eflags = value ? (eflags | bit) : (eflags & ~bit);
  }
};

enum class FaultType : std::uint8_t {
  kNone = 0,
  kBadOpcode,    ///< undecodable instruction word
  kBusError,     ///< access outside physical memory / misaligned MMIO
  kMpuData,      ///< EA-MPU denied a load or store
  kMpuFetch,     ///< EA-MPU denied instruction fetch
  kMpuTransfer,  ///< EA-MPU denied a control transfer (entry-point violation)
  kStackFault,   ///< exception frame push failed
  kNoHandler,    ///< IDT entry for a raised vector is null
  kPrivileged,   ///< guest executed a privileged instruction (hlt)
  kForeignCode,  ///< task interrupted while running outside its own region
};

const char* fault_name(FaultType t);

struct FaultInfo {
  FaultType type = FaultType::kNone;
  std::uint32_t eip = 0;   ///< faulting instruction
  std::uint32_t addr = 0;  ///< offending address (data faults / transfer target)
  Access access = Access::kRead;

  [[nodiscard]] std::string to_string() const;
};

enum class HaltReason : std::uint8_t {
  kNone = 0,
  kHltInstruction,
  kDoubleFault,
  kCycleLimit,
};

}  // namespace tytan::sim

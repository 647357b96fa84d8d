// Dispatch-mode differential suite: the decoded basic-block cache must be
// bit-identical to the reference interpreter on every simulated quantity at
// every step.  Each scenario runs two machines in lockstep — one per
// DispatchMode — and compares registers, EIP, EFLAGS, cycles, instructions,
// and the fault stream after every single step().  This doubles as the
// decode-cache regression corpus: interrupt/fault edge paths, self-modifying
// code, firmware collisions, and fuzzed instruction words all ride through
// both paths.  The same programs also run with the heat observatory and the
// tracer on: cached mode replays memoized fetch classifications, and the
// heat profile and tracer ring must come out identical to the interpreter's.
#include <gtest/gtest.h>

#include <initializer_list>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "hw/eampu.h"
#include "isa/assembler.h"
#include "sim/decode_cache.h"
#include "sim/devices.h"
#include "sim/machine.h"

namespace tytan::sim {
namespace {

constexpr std::uint32_t kCodeBase = 0x40000;
constexpr std::uint32_t kStackTop = 0x48000;

/// Assemble `source`, apply the minimal bare-test relocations, load it into
/// `machine` at kCodeBase, and return the symbol table (label -> offset).
std::map<std::string, std::uint32_t> load_program(Machine& machine,
                                                  std::string_view source) {
  auto object = isa::assemble(source);
  EXPECT_TRUE(object.is_ok()) << object.status().to_string();
  if (!object.is_ok()) {
    return {};
  }
  ByteVec image = object->image;
  for (const isa::Relocation& reloc : object->relocs) {
    const std::uint32_t value = reloc.addend + kCodeBase;
    std::uint8_t* site = image.data() + reloc.offset;
    switch (reloc.kind) {
      case isa::RelocKind::kAbs32: store_le32(site, value); break;
      case isa::RelocKind::kLo16:
        store_le32(site, (load_le32(site) & 0xFFFF0000u) | (value & 0xFFFF));
        break;
      case isa::RelocKind::kHi16:
        store_le32(site, (load_le32(site) & 0xFFFF0000u) | (value >> 16));
        break;
    }
  }
  machine.memory().write_block(kCodeBase, image);
  machine.cpu().eip = kCodeBase + object->entry;
  machine.cpu().set_sp(kStackTop);
  return object->symbols;
}

/// Step both machines once and compare every piece of simulated state.
/// Returns false once both machines halt (or on divergence, after failing).
bool lockstep_once(Machine& interp, Machine& cached, std::uint64_t step) {
  const StepOutcome a = interp.step();
  const StepOutcome b = cached.step();
  EXPECT_EQ(a, b) << "step outcome diverged at step " << step;
  EXPECT_EQ(interp.cpu().eip, cached.cpu().eip) << "EIP diverged at step " << step;
  EXPECT_EQ(interp.cpu().eflags, cached.cpu().eflags)
      << "EFLAGS diverged at step " << step;
  for (std::size_t r = 0; r < isa::kNumGprs; ++r) {
    EXPECT_EQ(interp.cpu().regs[r], cached.cpu().regs[r])
        << "r" << r << " diverged at step " << step;
  }
  EXPECT_EQ(interp.cycles(), cached.cycles()) << "cycles diverged at step " << step;
  EXPECT_EQ(interp.instructions_executed(), cached.instructions_executed())
      << "instructions diverged at step " << step;
  EXPECT_EQ(interp.fault_count(), cached.fault_count())
      << "fault count diverged at step " << step;
  EXPECT_EQ(interp.last_fault().type, cached.last_fault().type)
      << "fault type diverged at step " << step;
  EXPECT_EQ(interp.halted(), cached.halted()) << "halt diverged at step " << step;
  if (::testing::Test::HasFailure()) {
    return false;
  }
  return !(interp.halted() && cached.halted());
}

struct IdtBinding {
  std::uint8_t vector;
  const char* label;  ///< symbol the vector's handler lives at
};

/// Run `source` through both dispatch modes in lockstep for up to `steps`.
void differential(std::string_view source, std::uint64_t steps = 20'000,
                  std::initializer_list<IdtBinding> idt = {}) {
  auto interp_ptr = std::make_unique<Machine>();
  auto cached_ptr = std::make_unique<Machine>();
  Machine& interp = *interp_ptr;
  Machine& cached = *cached_ptr;
  interp.set_dispatch_mode(DispatchMode::kInterpreter);
  cached.set_dispatch_mode(DispatchMode::kCached);
  const auto symbols = load_program(interp, source);
  load_program(cached, source);
  for (const IdtBinding& binding : idt) {
    ASSERT_TRUE(symbols.contains(binding.label)) << binding.label;
    const std::uint32_t handler = kCodeBase + symbols.at(binding.label);
    interp.set_idt_entry(binding.vector, handler);
    cached.set_idt_entry(binding.vector, handler);
  }
  for (std::uint64_t i = 0; i < steps; ++i) {
    if (!lockstep_once(interp, cached, i)) {
      break;
    }
  }
  // The cached leg must actually have exercised the cache, or the test
  // proves nothing about it.
  EXPECT_GT(cached.decode_cache().stats().builds + cached.decode_cache().stats().hits,
            0u);
}

// Programs shared by the lockstep tests and the observability-identity
// test below.

constexpr std::string_view kStraightLine = R"(
      movi r0, 10
      addi r0, 5
      movi r1, 3
      sub  r0, r1
      movi r2, 4
      mul  r2, r0
      li   r3, 0xdeadbeef
      hlt
  )";

constexpr std::string_view kLoopsAndBranches = R"(
      movi r0, 0
      movi r1, 200
  loop:
      addi r0, 1
      cmp  r0, r1
      jlt  loop
      movi r2, 0
  down:
      addi r2, 3
      cmpi r2, 600
      jnz  down
      hlt
  )";

constexpr std::string_view kMemoryTraffic = R"(
      li   r2, data
      movi r0, 0
  loop:
      ldw  r3, [r2]
      addi r3, 1
      stw  r3, [r2]
      ldb  r4, [r2+1]
      stb  r4, [r2+2]
      addi r0, 1
      cmpi r0, 300
      jnz  loop
      hlt
  data:
      .word 0x01020304
  )";

constexpr std::string_view kCallRetAndJumpTable = R"(
      movi r5, 0
  main:
      call bump
      addi r1, 1
      andi r1, 3
      shli r1, 2
      li   r2, table
      add  r2, r1
      ldw  r2, [r2]
      shri r1, 2
      jmpr r2
  case0:
      jmp  next
  case1:
      jmp  next
  case2:
      jmp  next
  case3:
      jmp  next
  next:
      cmpi r5, 500
      jnz  main
      hlt
  bump:
      addi r5, 1
      ret
  table:
      .word case0, case1, case2, case3
  )";

constexpr std::string_view kSoftwareInterrupt = R"(
      sti
      movi r5, 0
  loop:
      int  0x21
      cmpi r5, 50
      jnz  loop
      hlt
  handler:
      addi r5, 1
      iret
  )";

// The loop body overwrites its own next instruction: first pass stores a
// `movi r6, 7` word over the `movi r6, 1` site, so the second pass must
// decode the NEW word.  The interpreter re-fetches naturally; the cache
// must observe the store through the write watch and rebuild.
constexpr std::string_view kSelfModifying = R"(
      li   r1, patch_site
      li   r2, patched_word
      ldw  r3, [r2]       ; r3 = encoding of "movi r6, 7"
      movi r0, 0
  loop:
      stw  r3, [r1]       ; overwrite the instruction below
  patch_site:
      movi r6, 1          ; becomes "movi r6, 7" after the first pass
      addi r0, 1
      cmpi r0, 20
      jnz  loop
      hlt
  patched_word:
      movi r6, 7          ; never executed here; fetched as data
  )";

constexpr std::string_view kFaultHandlerAtNext = R"(
      li   r1, 0x200000
      ldw  r2, [r1]       ; bus error; handler is the next instruction
  handler:
      movi r6, 99
      hlt
  )";

// The handler clobbers SP before IRET, so the frame pops fault.  Both
// modes must walk the identical fault path.
constexpr std::string_view kIretCorruptedStack = R"(
      sti
      int  0x21
      hlt
  handler:
      movi r7, 3          ; corrupt SP; iret pops fault
      iret
      hlt
  )";

TEST(Dispatch, StraightLineArithmetic) { differential(kStraightLine); }

TEST(Dispatch, LoopsAndBranches) { differential(kLoopsAndBranches); }

TEST(Dispatch, MemoryTraffic) { differential(kMemoryTraffic); }

TEST(Dispatch, CallRetAndJumpTable) { differential(kCallRetAndJumpTable); }

TEST(Dispatch, SoftwareInterruptRoundTrip) {
  differential(kSoftwareInterrupt, 20'000, {{kVecSyscall, "handler"}});
}

TEST(Dispatch, SelfModifyingCodeInvalidates) { differential(kSelfModifying); }

TEST(Dispatch, FaultHandlerAtNextInstruction) {
  differential(kFaultHandlerAtNext, 1'000, {{kVecFault, "handler"}});
}

TEST(Dispatch, IretWithCorruptedStack) {
  differential(kIretCorruptedStack, 1'000, {{kVecSyscall, "handler"}});
}

TEST(Dispatch, IrqDeliveryWindowsIdentical) {
  // A periodic timer IRQ must land on exactly the same instruction boundary
  // in both modes — one-instruction-per-step is part of the contract.
  const char* source = R"(
      sti
  spin:
      addi r0, 1
      jmp  spin
  handler:
      addi r5, 1
      cmpi r5, 5
      jz   done
      iret
  done:
      hlt
  )";
  auto interp_ptr = std::make_unique<Machine>();
  auto cached_ptr = std::make_unique<Machine>();
  Machine& interp = *interp_ptr;
  Machine& cached = *cached_ptr;
  interp.set_dispatch_mode(DispatchMode::kInterpreter);
  cached.set_dispatch_mode(DispatchMode::kCached);
  for (Machine* m : {&interp, &cached}) {
    auto timer = std::make_shared<TimerDevice>();
    timer->set_irq_sink([m](std::uint8_t v) { m->raise_irq(v); });
    m->bus().attach(timer);
    const auto symbols = load_program(*m, source);
    m->set_idt_entry(kVecTimer, kCodeBase + symbols.at("handler"));
    timer->write32(TimerDevice::kPeriod, 137);
    timer->write32(TimerDevice::kCtrl, 1);
  }
  for (std::uint64_t i = 0; i < 50'000; ++i) {
    if (!lockstep_once(interp, cached, i)) {
      break;
    }
  }
  EXPECT_EQ(cached.cpu().regs[5], 5u);
}

TEST(Dispatch, FirmwareCollisionWithCachedBlock) {
  // Register a firmware entry point at an address already inside a cached
  // block: the registration must invalidate the cache so the fast path can
  // never step over the firmware hook.
  auto interp_ptr = std::make_unique<Machine>();
  auto cached_ptr = std::make_unique<Machine>();
  Machine& interp = *interp_ptr;
  Machine& cached = *cached_ptr;
  interp.set_dispatch_mode(DispatchMode::kInterpreter);
  cached.set_dispatch_mode(DispatchMode::kCached);
  const char* source = R"(
      movi r0, 0
  loop:
      addi r0, 1
  hook_site:
      nop
      nop
      cmpi r0, 10
      jnz  loop
      hlt
  )";
  const auto symbols = load_program(interp, source);
  load_program(cached, source);
  // Warm both machines through a few iterations (the cache builds blocks
  // spanning the nops), then drop a firmware hook onto the first nop.
  for (std::uint64_t i = 0; i < 12; ++i) {
    ASSERT_TRUE(lockstep_once(interp, cached, i));
  }
  const std::uint32_t hook = kCodeBase + symbols.at("hook_site");
  int interp_calls = 0;
  int cached_calls = 0;
  interp.register_firmware(hook, "hook", [&](Machine& m) {
    ++interp_calls;
    m.charge(3);
    m.cpu().eip = hook + isa::kInstrSize;
  });
  cached.register_firmware(hook, "hook", [&](Machine& m) {
    ++cached_calls;
    m.charge(3);
    m.cpu().eip = hook + isa::kInstrSize;
  });
  for (std::uint64_t i = 12; i < 2'000; ++i) {
    if (!lockstep_once(interp, cached, i)) {
      break;
    }
  }
  EXPECT_GT(cached_calls, 0);
  EXPECT_EQ(interp_calls, cached_calls);
}

TEST(Dispatch, FuzzedWordsFaultIdentically) {
  // Pseudo-random instruction words (fixed seed): most decode to garbage or
  // fault mid-execution.  Both modes must produce the identical fault
  // stream.  The machine is re-seeded every round so fault halts don't end
  // the corpus early.
  std::mt19937 rng(0xC0FFEE);
  for (int round = 0; round < 40; ++round) {
    auto interp_ptr = std::make_unique<Machine>();
    auto cached_ptr = std::make_unique<Machine>();
    Machine& interp = *interp_ptr;
    Machine& cached = *cached_ptr;
    interp.set_dispatch_mode(DispatchMode::kInterpreter);
    cached.set_dispatch_mode(DispatchMode::kCached);
    for (Machine* m : {&interp, &cached}) {
      m->cpu().eip = kCodeBase;
      m->cpu().set_sp(kStackTop);
      m->set_idt_entry(kVecFault, kCodeBase + 0x1000);
    }
    std::mt19937 words(rng());  // same stream into both machines
    for (std::uint32_t off = 0; off < 0x80; off += 4) {
      const std::uint32_t word = words();
      interp.memory().write32(kCodeBase + off, word);
      cached.memory().write32(kCodeBase + off, word);
      // A plausible handler body at the fault vector target: iret.
      interp.memory().write32(kCodeBase + 0x1000 + off, 0x41000000u);
      cached.memory().write32(kCodeBase + 0x1000 + off, 0x41000000u);
    }
    for (std::uint64_t i = 0; i < 500; ++i) {
      if (!lockstep_once(interp, cached, i)) {
        break;
      }
    }
    ASSERT_FALSE(::testing::Test::HasFailure()) << "diverged in round " << round;
  }
}

// Two fetch faults under an armed EA-MPU: a fall-through into words a data
// slot protects (denied fetch), then, from the fault handler, a jump into
// MMIO (bus-error fetch).
constexpr std::string_view kBadFetch = R"(
      li   r1, guarded
      ldw  r2, [r1]       ; slot 0 grants this read
      li   r3, scratch
      stw  r2, [r3]       ; unprotected write
      jmp  fall
  handler:
      addi r6, 1
      cmpi r6, 2
      jz   done
      li   r4, 0x100000   ; MMIO is never fetchable
      jmpr r4
  done:
      jmp  done           ; HLT is privileged once a policy is armed
  fall:
      movi r0, 1
  guarded:
      movi r0, 2          ; protected data: the fetch is denied
  scratch:
      .word 0
  )";

/// Heat profile and tracer ring of one observed run of `source`.
struct Observed {
  std::string heat;
  std::vector<Tracer::Entry> trace;
  std::uint64_t faults = 0;
};

Observed run_observed(DispatchMode mode, std::string_view source,
                      const std::vector<IdtBinding>& idt) {
  hw::EaMpu mpu;  // outlives the machine that points at it
  auto machine_ptr = std::make_unique<Machine>();
  Machine& m = *machine_ptr;
  m.set_dispatch_mode(mode);
  m.enable_heat(/*time_dispatch=*/false);
  m.enable_trace(1u << 15);  // holds every step below: no entry drops out
  const auto symbols = load_program(m, source);
  for (const IdtBinding& binding : idt) {
    m.set_idt_entry(binding.vector, kCodeBase + symbols.at(binding.label));
  }
  // A program with a `guarded` label runs under an EA-MPU whose slot 0 turns
  // the word there into data only the program may read and write; the
  // others run bare, as in the lockstep tests.
  if (symbols.contains("guarded")) {
    EXPECT_TRUE(mpu.write_slot(0, {.code_start = kCodeBase,
                                   .code_size = 0x1000,
                                   .data_start = kCodeBase + symbols.at("guarded"),
                                   .data_size = 4,
                                   .perms = hw::kPermRead | hw::kPermWrite})
                    .is_ok());
    m.set_policy(&mpu);
  }
  for (int i = 0; i < 20'000 && !m.halted(); ++i) {
    m.step();
  }
  m.heat()->flush();
  return {m.heat()->profile().to_jsonl(false), m.tracer()->snapshot(), m.fault_count()};
}

TEST(Dispatch, ObservabilityIdenticalAcrossModes) {
  const struct {
    std::string_view source;
    std::vector<IdtBinding> idt;
  } programs[] = {
      {kStraightLine, {}},
      {kLoopsAndBranches, {}},
      {kMemoryTraffic, {}},
      {kCallRetAndJumpTable, {}},
      {kSoftwareInterrupt, {{kVecSyscall, "handler"}}},
      {kSelfModifying, {}},
      {kFaultHandlerAtNext, {{kVecFault, "handler"}}},
      {kIretCorruptedStack, {{kVecSyscall, "handler"}}},
      {kBadFetch, {{kVecFault, "handler"}}},
  };
  bool saw_denied_fetch = false;
  for (std::size_t p = 0; p < std::size(programs); ++p) {
    const Observed interp =
        run_observed(DispatchMode::kInterpreter, programs[p].source, programs[p].idt);
    const Observed cached =
        run_observed(DispatchMode::kCached, programs[p].source, programs[p].idt);
    EXPECT_EQ(interp.faults, cached.faults) << "program " << p;
    EXPECT_FALSE(interp.heat.empty()) << "program " << p;
    EXPECT_EQ(interp.heat, cached.heat) << "program " << p;
    ASSERT_EQ(interp.trace.size(), cached.trace.size()) << "program " << p;
    for (std::size_t i = 0; i < interp.trace.size(); ++i) {
      const Tracer::Entry& a = interp.trace[i];
      const Tracer::Entry& b = cached.trace[i];
      EXPECT_EQ(a.cycle, b.cycle) << "program " << p << " entry " << i;
      EXPECT_EQ(a.eip, b.eip) << "program " << p << " entry " << i;
      EXPECT_EQ(a.word, b.word) << "program " << p << " entry " << i;
      EXPECT_EQ(a.note, b.note) << "program " << p << " entry " << i;
      EXPECT_EQ(a.task, b.task) << "program " << p << " entry " << i;
      EXPECT_EQ(a.verdict, b.verdict) << "program " << p << " entry " << i;
      saw_denied_fetch = saw_denied_fetch || a.verdict == Tracer::kVerdictDenied;
    }
  }
  // The bad-fetch program reached both of its fetch faults.
  EXPECT_TRUE(saw_denied_fetch);
  const Observed bad = run_observed(DispatchMode::kCached, kBadFetch, {{kVecFault, "handler"}});
  EXPECT_EQ(bad.faults, 2u);
  EXPECT_NE(bad.heat.find(R"("access":"execute","rule":"denied")"), std::string::npos);
  EXPECT_NE(bad.heat.find(R"("access":"read","rule":"slot0")"), std::string::npos);
}

TEST(Dispatch, CacheStatsAndInvalidation) {
  // Direct decode-cache behavior: hits accumulate on re-execution, and
  // invalidate_decode_cache() drops every block.
  auto machine_ptr = std::make_unique<Machine>();
  Machine& machine = *machine_ptr;
  machine.set_dispatch_mode(DispatchMode::kCached);
  load_program(machine, R"(
      movi r0, 0
  loop:
      addi r0, 1
      cmpi r0, 50
      jnz  loop
      hlt
  )");
  machine.run(10'000);
  const DecodeCache::Stats& stats = machine.decode_cache().stats();
  EXPECT_GT(stats.builds, 0u);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(machine.decode_cache().block_count(), 0u);
  machine.invalidate_decode_cache();
  EXPECT_EQ(machine.decode_cache().block_count(), 0u);
}

}  // namespace
}  // namespace tytan::sim

// Int Mux: secure context save/wipe/restore across real interrupts
// (paper §4 "Interrupting secure tasks" / Tables 2 and 3).
#include <gtest/gtest.h>

#include "core/platform.h"

namespace tytan {
namespace {

using core::Platform;

// A secure task that parks distinctive values in its registers, then spins.
// Register r5 counts loop iterations so the test can observe progress across
// preemptions.
constexpr std::string_view kSpinner = R"(
    .secure
    .stack 256
    .entry main
main:
    li   r2, 0xcafe0001
    li   r3, 0xcafe0002
    li   r4, 0xcafe0003
    movi r5, 0
loop:
    addi r5, 1
    jmp  loop
)";

TEST(IntMux, SecureTaskSurvivesPreemption) {
  Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  auto task = platform.load_task_source(kSpinner, {.name = "spin"});
  ASSERT_TRUE(task.is_ok());
  // Run long enough for many tick preemptions (tick = 48,000 cycles).
  platform.run_for(3'000'000);
  const rtos::Tcb* tcb = platform.scheduler().get(*task);
  ASSERT_NE(tcb, nullptr);
  EXPECT_GT(tcb->activations, 5u) << "task was not repeatedly resumed";

  // Whenever it is interrupted, its loop register keeps growing — context is
  // restored exactly (if r5 were wiped or corrupted the count would reset).
  auto sp = platform.int_mux().shadow_sp(*task);
  ASSERT_TRUE(sp.is_ok());
  // Saved r5 lives at [sp+4] (frame: r6 at sp, r5 above it).
  auto r5 = platform.machine().fw_read32(core::IntMux::kIdent, *sp + 4);
  ASSERT_TRUE(r5.is_ok());
  EXPECT_GT(*r5, 10'000u);
}

TEST(IntMux, RegistersWipedBeforeOsRuns) {
  Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  auto task = platform.load_task_source(kSpinner, {.name = "spin"});
  ASSERT_TRUE(task.is_ok());

  // Step until the task has run and a tick interrupt fired while it was
  // current; immediately after the Int Mux branch (EIP at a firmware
  // handler), the register file must contain no 0xcafe... values.
  auto& machine = platform.machine();
  bool checked = false;
  for (int i = 0; i < 2'000'000 && !checked; ++i) {
    machine.step();
    if (machine.is_firmware(machine.cpu().eip) &&
        machine.cpu().eip == sim::kFwOsKernel + core::Kernel::kTickHandlerOff) {
      const rtos::Tcb* current = platform.scheduler().current();
      if (current != nullptr && current->handle == *task) {
        for (unsigned r = 0; r < isa::kNumGprs; ++r) {
          EXPECT_NE(machine.cpu().regs[r] & 0xFFFF0000u, 0xcafe0000u)
              << "secret leaked in r" << r;
        }
        checked = true;
      }
    }
  }
  EXPECT_TRUE(checked) << "never observed a tick landing on the secure task";
}

TEST(IntMux, SavedFrameIsInTaskStackNotOsVisible) {
  Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  auto task = platform.load_task_source(kSpinner, {.name = "spin"});
  ASSERT_TRUE(task.is_ok());
  platform.run_for(500'000);

  const rtos::Tcb* tcb = platform.scheduler().get(*task);
  auto sp = platform.int_mux().shadow_sp(*task);
  ASSERT_TRUE(sp.is_ok());
  // The saved SP lies inside the task's own region.
  EXPECT_GE(*sp, tcb->region_base);
  EXPECT_LT(*sp, tcb->region_base + tcb->region_size);
  // The OS cannot read the frame (EA-MPU) ...
  EXPECT_EQ(platform.machine().fw_read32(sim::kFwOsKernel, *sp).status().code(),
            Err::kPermissionDenied);
  // ... and cannot read the shadow TCB either.
  EXPECT_EQ(platform.machine().fw_read32(sim::kFwOsKernel, core::kShadowTcbBase)
                .status()
                .code(),
            Err::kPermissionDenied);
}

TEST(IntMux, SaveStatsMatchCostModel) {
  Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  auto task = platform.load_task_source(kSpinner, {.name = "spin"});
  ASSERT_TRUE(task.is_ok());

  // Run until at least one secure save happened.
  ASSERT_TRUE(platform.run_until(
      [&] {
        return platform.int_mux().last_save().secure &&
               platform.int_mux().last_save().total > 0;
      },
      5'000'000));
  const auto& save = platform.int_mux().last_save();
  const auto& costs = platform.machine().costs();
  // Paper Table 2: store 38, wipe 16, branch 41, overall 95.
  EXPECT_EQ(save.store, 7 * costs.intmux_store_reg + costs.intmux_store_shadow);
  EXPECT_EQ(save.wipe, 8 * costs.intmux_wipe_reg);
  EXPECT_EQ(save.branch, costs.intmux_branch);
  EXPECT_EQ(save.total, save.store + save.wipe + save.branch);
}

TEST(IntMux, NormalTaskSaveIsCheaperAndUnwiped) {
  Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  std::string source(kSpinner);
  source.erase(source.find("    .secure\n"), 12);
  auto task = platform.load_task_source(source, {.name = "normal-spin"});
  ASSERT_TRUE(task.is_ok());

  ASSERT_TRUE(platform.run_until(
      [&] {
        return !platform.int_mux().last_save().secure &&
               platform.int_mux().last_save().store > 0;
      },
      5'000'000));
  const auto& save = platform.int_mux().last_save();
  EXPECT_EQ(save.wipe, 0u);
  EXPECT_EQ(save.store, platform.machine().costs().ctx_save_normal);
  // The OS *can* read a normal task's saved frame.
  const rtos::Tcb* tcb = platform.scheduler().get(*task);
  ASSERT_NE(tcb, nullptr);
  if (tcb->context_saved) {
    EXPECT_TRUE(platform.machine().fw_read32(sim::kFwOsKernel, tcb->saved_sp).is_ok());
  }
}

TEST(IntMux, ResumeStatsMatchTable3Shape) {
  Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  auto task = platform.load_task_source(kSpinner, {.name = "spin"});
  ASSERT_TRUE(task.is_ok());
  ASSERT_TRUE(platform.run_until(
      [&] { return platform.int_mux().last_resume().total > 0; }, 5'000'000));
  const auto& resume = platform.int_mux().last_resume();
  const auto& costs = platform.machine().costs();
  EXPECT_EQ(resume.branch, costs.resume_branch);
  EXPECT_GT(resume.restore, costs.resume_branch);  // restore dominates (Table 3)
}

TEST(IntMux, EntryPointEnforcedAgainstJumpIntoTask) {
  Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  auto victim = platform.load_task_source(kSpinner, {.name = "victim", .auto_start = false});
  ASSERT_TRUE(victim.is_ok());
  const rtos::Tcb* vt = platform.scheduler().get(*victim);

  // An attacker task jumps into the middle of the victim (code-reuse attempt).
  const std::string attacker =
      "    .secure\n    .stack 128\n    .entry main\nmain:\n    li r1, " +
      std::to_string(vt->entry + 8) + "\n    jmpr r1\nhang:\n    jmp hang\n";
  auto attacker_task = platform.load_task_source(attacker, {.name = "attacker"});
  ASSERT_TRUE(attacker_task.is_ok());

  const std::uint64_t kills_before = platform.kernel().fault_kills();
  platform.run_until([&] { return platform.kernel().fault_kills() > kills_before; },
                     5'000'000);
  EXPECT_GT(platform.kernel().fault_kills(), kills_before);
  EXPECT_EQ(platform.machine().last_fault().type, sim::FaultType::kMpuTransfer);
}

// A task may branch out of its region into zeroed unprotected RAM: the fetch
// is legal and the zeros run as nops.  With SP also in unprotected RAM, the
// next tick's hardware frame push (under the foreign code's identity)
// succeeds, and the Int Mux sees an interrupt from outside the running
// task's region.  It must neither leave the task unsaved (a normal task's
// next dispatch found no context and aborted the host; a secure task was
// silently restarted from its entry) nor file the foreign context as the
// task's: the task is contained as a fault kill, and a secure task's
// registers are wiped before the OS fault handler runs.
void expect_foreign_code_kill(bool secure) {
  const std::string source = std::string(secure ? "    .secure\n" : "") + R"(
    .stack 128
    .entry main
main:
    call here
here:
    pop  r1                ; r1 = absolute address of `here`
    li   r2, 0x3000
    add  r1, r2
    mov  r7, r1            ; SP into zeroed, unprotected RAM
    li   r3, 0xcafe0003
    li   r4, 0xcafe0004
    call 0x2000            ; far past the region: nops until the next tick
    hlt
)";
  Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  auto task = platform.load_task_source(source, {.name = "stray"});
  ASSERT_TRUE(task.is_ok()) << task.status().to_string();
  const rtos::Tcb* tcb = platform.scheduler().get(*task);
  ASSERT_EQ(tcb->secure, secure);
  const std::uint32_t region_end = tcb->region_base + tcb->region_size;
  sim::Machine& machine = platform.machine();
  bool at_fault_handler = false;
  while (!at_fault_handler && machine.cycles() < 500'000) {
    machine.step();
    at_fault_handler = machine.cpu().eip == sim::kFwFaultHandler;
  }
  ASSERT_TRUE(at_fault_handler) << "the task was never contained";
  if (secure) {
    for (unsigned r = 0; r < isa::kNumGprs; ++r) {
      EXPECT_NE(machine.cpu().regs[r] & 0xFFFF0000u, 0xcafe0000u) << "r" << r << " leaked";
    }
  }
  platform.run_for(100'000);
  EXPECT_EQ(platform.kernel().fault_kills(), 1u);
  EXPECT_EQ(platform.scheduler().get(*task), nullptr);
  EXPECT_FALSE(machine.halted());
  const sim::FaultInfo& fault = machine.last_fault();
  EXPECT_EQ(fault.type, sim::FaultType::kForeignCode) << fault.to_string();
  EXPECT_GE(fault.eip, region_end) << fault.to_string();
}

TEST(IntMux, NormalTaskInterruptedInForeignCodeIsKilled) {
  expect_foreign_code_kill(/*secure=*/false);
}

TEST(IntMux, SecureTaskInterruptedInForeignCodeIsKilled) {
  expect_foreign_code_kill(/*secure=*/true);
}

// A normal task may jump into another normal task's code (the EA-MPU guards
// only secure entry points).  The interrupt that lands there belongs to the
// jumper, not to the region's owner: looked up by origin EIP, the jumper's
// registers were filed as the owner's context on the jumper's stack, the
// jumper's kill wiped that frame, and the owner's next dispatch aborted the
// host.  Now the jumper alone is killed and the owner keeps running.
TEST(IntMux, JumpIntoAnotherTasksCodeKillsOnlyTheJumper) {
  Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  auto owner = platform.load_task_source(R"(
    .stack 128
    .entry main
main:
    movi r0, 4
    movi r1, 46
    int  0x21             ; print '.'
    movi r0, 2
    movi r1, 5
    int  0x21             ; sleep 5 ticks
    jmp  main
spin:
    addi r3, 1
    jmp  spin
)",
                                         {.name = "owner", .priority = 2});
  ASSERT_TRUE(owner.is_ok());
  const std::uint32_t spin = platform.scheduler().get(*owner)->entry + 28;
  auto jumper = platform.load_task_source(
      "    .stack 128\n    .entry main\nmain:\n    li r1, " + std::to_string(spin) +
          "\n    jmpr r1\n",
      {.name = "jumper", .priority = 3});
  ASSERT_TRUE(jumper.is_ok());
  platform.run_for(2'000'000);
  EXPECT_EQ(platform.kernel().fault_kills(), 1u);
  EXPECT_EQ(platform.scheduler().get(*jumper), nullptr);
  EXPECT_NE(platform.scheduler().get(*owner), nullptr);
  EXPECT_EQ(platform.machine().last_fault().type, sim::FaultType::kForeignCode);
  EXPECT_GT(platform.serial().output().size(), 3u) << "the owner stopped running";
}

}  // namespace
}  // namespace tytan

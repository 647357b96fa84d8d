// Platform state enumeration and versioned snapshot/restore.
//
// State ownership contract (docs/SNAPSHOT.md): every piece of guest-visible
// state is reachable from the Platform and appears in exactly one section of
// visit_state().  Host-only observability (profiler samples, event bus,
// metrics, spans, the lint report) and pure wiring (firmware handler
// registrations, IRQ sinks, hooks) are deliberately excluded: they never
// influence guest execution, so a restored platform re-executes
// bit-identically without them.

#include <cstring>
#include <type_traits>

#include "core/platform.h"
#include "isa/isa.h"

namespace tytan::core {

namespace {

std::string fault_plan_text(const fault::FaultPlan& plan) {
  std::string text;
  for (const fault::FaultSpec& spec : plan.specs) {
    if (!text.empty()) {
      text += ';';
    }
    text += spec.to_string();
  }
  return text;
}

std::array<std::uint8_t, sizeof(sim::CostModel)> cost_model_bytes(
    const sim::CostModel& costs) {
  static_assert(std::is_trivially_copyable_v<sim::CostModel>);
  std::array<std::uint8_t, sizeof(sim::CostModel)> bytes{};
  std::memcpy(bytes.data(), &costs, sizeof(sim::CostModel));
  return bytes;
}

/// The CONF section doubles as the restore compatibility check and the
/// platform-reconstruction recipe (config_from_snapshot) for replay tooling.
void save_conf(Platform& platform, snap::Writer& w) {
  const Platform::Config& config = platform.config();
  w.u32(platform.machine().memory().size());
  w.u32(config.tick_period);
  w.raw(config.kp);
  w.u64(config.rng_seed);
  w.u8(static_cast<std::uint8_t>(config.lint_mode));
  w.str(fault_plan_text(config.fault_plan));
  w.u64(config.fault_plan.seed);
  w.blob(cost_model_bytes(config.costs));
  const auto& devices = platform.machine().bus().devices();
  w.u32(static_cast<std::uint32_t>(devices.size()));
  for (const auto& device : devices) {
    w.str(device->name());
  }
}

Status check_conf(Platform& platform, snap::Reader& r) {
  const Platform::Config& config = platform.config();
  auto mismatch = [](const std::string& what) {
    return make_error(Err::kInvalidArgument,
                      "snapshot incompatible with this platform: " + what +
                          " differs");
  };
  if (r.u32() != platform.machine().memory().size()) {
    return mismatch("memory size");
  }
  if (r.u32() != config.tick_period) {
    return mismatch("tick period");
  }
  crypto::Key128 kp{};
  r.raw(kp);
  if (kp != config.kp) {
    return mismatch("platform key Kp");
  }
  if (r.u64() != config.rng_seed) {
    return mismatch("rng seed");
  }
  if (static_cast<LintMode>(r.u8()) != config.lint_mode) {
    return mismatch("lint mode");
  }
  if (r.str() != fault_plan_text(config.fault_plan)) {
    return mismatch("fault plan");
  }
  if (r.u64() != config.fault_plan.seed) {
    return mismatch("fault seed");
  }
  const ByteVec costs = r.blob();
  const auto own_costs = cost_model_bytes(config.costs);
  if (costs.size() != own_costs.size() ||
      !std::equal(costs.begin(), costs.end(), own_costs.begin())) {
    return mismatch("cost model");
  }
  const auto& devices = platform.machine().bus().devices();
  if (r.u32() != devices.size()) {
    return mismatch("device complement");
  }
  for (const auto& device : devices) {
    if (r.str() != device->name()) {
      return mismatch("device complement");
    }
  }
  return Status::ok();
}

void save_boot_report(const BootReport& report, snap::Writer& w) {
  w.boolean(report.ok);
  w.u32(report.trusted_bytes);
  w.u32(static_cast<std::uint32_t>(report.components.size()));
  for (const BootReport::Entry& entry : report.components) {
    w.str(entry.name);
    w.u32(entry.window);
    w.u32(entry.footprint);
    w.boolean(entry.verified);
  }
}

BootReport read_boot_report(snap::Reader& r) {
  BootReport report;
  report.ok = r.boolean();
  report.trusted_bytes = r.u32();
  const std::uint32_t count = r.u32();
  for (std::uint32_t i = 0; i < count && r.ok(); ++i) {
    BootReport::Entry entry;
    entry.name = r.str();
    entry.window = r.u32();
    entry.footprint = r.u32();
    entry.verified = r.boolean();
    report.components.push_back(std::move(entry));
  }
  return report;
}

}  // namespace

Status Platform::visit_state(snap::StateVisitor& visitor) {
  // Fixed section order — this IS the schema.  Reordering, adding, or
  // removing a section (or changing any section's payload layout) is a
  // wire-format change: bump snap::kSchemaVersion.
  Status s = visitor.section(
      "CONF", [this](snap::Writer& w) { save_conf(*this, w); },
      [this](snap::Reader& r) { return check_conf(*this, r); });
  if (!s.is_ok()) {
    return s;
  }

  s = visitor.section(
      "PLAT",
      [this](snap::Writer& w) {
        w.boolean(booted_);
        save_boot_report(boot_report_, w);
      },
      [this](snap::Reader& r) {
        booted_ = r.boolean();
        boot_report_ = read_boot_report(r);
        return Status::ok();
      });
  if (!s.is_ok()) {
    return s;
  }

  s = visitor.section(
      "MACH", [this](snap::Writer& w) { machine_->save_state(w); },
      [this](snap::Reader& r) { return machine_->restore_state(r); });
  if (!s.is_ok()) {
    return s;
  }

  // Physical memory is authoritative for everything the guest can address:
  // the IDT, firmware windows, task images and stacks, the shadow-TCB
  // region, mailbox words, and the sealed-storage arena.
  s = visitor.section(
      "MEMR",
      [this](snap::Writer& w) {
        const sim::PhysicalMemory& memory = machine_->memory();
        w.blob(memory.view(0, memory.size()));
      },
      [this](snap::Reader& r) {
        const std::span<const std::uint8_t> bytes = r.blob_view();
        sim::PhysicalMemory& memory = machine_->memory();
        if (bytes.size() != memory.size()) {
          return make_error(Err::kCorrupt,
                            "snapshot memory image is " +
                                std::to_string(bytes.size()) +
                                " bytes, machine has " +
                                std::to_string(memory.size()));
        }
        if (memr_rewind_) {
          // Rewinding to the snapshot we last restored: everything outside
          // the dirty range already equals the image.
          if (memory.dirty()) {
            const std::uint32_t lo = memory.dirty_lo();
            memory.write_block(lo, bytes.subspan(lo, memory.dirty_hi() - lo));
          }
        } else {
          memory.write_block(0, bytes);
        }
        memory.mark_clean();
        return Status::ok();
      });
  if (!s.is_ok()) {
    return s;
  }

  // Devices in bus attach order; each device owns its payload layout, so the
  // section nests one length-prefixed blob per device.
  s = visitor.section(
      "DEVS",
      [this](snap::Writer& w) {
        // Devices latch their time lazily between tick events; bring every
        // latch up to the classic per-instruction value before serializing.
        machine_->flush_device_time();
        const auto& devices = machine_->bus().devices();
        w.u32(static_cast<std::uint32_t>(devices.size()));
        for (const auto& device : devices) {
          w.str(device->name());
          snap::Writer payload;
          device->save_state(payload);
          w.blob(payload.buffer());
        }
      },
      [this](snap::Reader& r) {
        const auto& devices = machine_->bus().devices();
        if (r.u32() != devices.size()) {
          return make_error(Err::kInvalidArgument,
                            "snapshot device count differs from this platform");
        }
        for (const auto& device : devices) {
          const std::string name = r.str();
          if (name != device->name()) {
            return make_error(Err::kInvalidArgument,
                              "snapshot device '" + name + "' does not match '" +
                                  std::string(device->name()) + "'");
          }
          const ByteVec payload = r.blob();
          snap::Reader device_reader(payload);
          if (Status ds = device->restore_state(device_reader); !ds.is_ok()) {
            return ds;
          }
          if (!device_reader.ok() || device_reader.remaining() != 0) {
            return make_error(Err::kCorrupt, "snapshot payload of device '" +
                                                 name + "' is malformed");
          }
        }
        return Status::ok();
      });
  if (!s.is_ok()) {
    return s;
  }

  // The tracer's ring is guest-replay-relevant (tytan-trace dumps it after a
  // replayed run), so enablement, capacity and entries travel.
  s = visitor.section(
      "TRCE",
      [this](snap::Writer& w) {
        const sim::Tracer* tracer = machine_->tracer();
        w.boolean(tracer != nullptr);
        if (tracer != nullptr) {
          w.u64(tracer->capacity());
          const auto entries = tracer->snapshot();
          w.u32(static_cast<std::uint32_t>(entries.size()));
          for (const sim::Tracer::Entry& entry : entries) {
            w.u64(entry.cycle);
            w.u32(entry.eip);
            w.u32(entry.word);
            w.str(entry.note);
            w.i32(entry.task);
            w.i32(entry.verdict);
          }
        }
      },
      [this](snap::Reader& r) {
        if (!r.boolean()) {
          machine_->enable_trace(0);
          return Status::ok();
        }
        machine_->enable_trace(static_cast<std::size_t>(r.u64()));
        const std::uint32_t count = r.u32();
        for (std::uint32_t i = 0; i < count && r.ok(); ++i) {
          const std::uint64_t cycle = r.u64();
          const std::uint32_t eip = r.u32();
          const std::uint32_t word = r.u32();
          std::string note = r.str();
          const std::int32_t task = r.i32();
          const int verdict = r.i32();
          machine_->tracer()->record(cycle, eip, word, std::move(note), task,
                                     verdict);
        }
        return Status::ok();
      });
  if (!s.is_ok()) {
    return s;
  }

  s = visitor.section(
      "EMPU", [this](snap::Writer& w) { mpu_->save_state(w); },
      [this](snap::Reader& r) { return mpu_->restore_state(r); });
  if (!s.is_ok()) {
    return s;
  }

  s = visitor.section(
      "DRVS", [this](snap::Writer& w) { driver_->save_state(w); },
      [this](snap::Reader& r) { return driver_->restore_state(r); });
  if (!s.is_ok()) {
    return s;
  }

  s = visitor.section(
      "SCHD", [this](snap::Writer& w) { scheduler_->save_state(w); },
      [this](snap::Reader& r) {
        return scheduler_->restore_state(r, [this](rtos::Tcb& tcb) {
          return kernel_->adopt_firmware_task(tcb);
        });
      });
  if (!s.is_ok()) {
    return s;
  }

  s = visitor.section(
      "KRNL", [this](snap::Writer& w) { kernel_->save_state(w); },
      [this](snap::Reader& r) { return kernel_->restore_state(r); });
  if (!s.is_ok()) {
    return s;
  }

  s = visitor.section(
      "IMUX", [this](snap::Writer& w) { int_mux_->save_state(w); },
      [this](snap::Reader& r) { return int_mux_->restore_state(r); });
  if (!s.is_ok()) {
    return s;
  }

  s = visitor.section(
      "LOAD", [this](snap::Writer& w) { loader_->save_state(w); },
      [this](snap::Reader& r) { return loader_->restore_state(r); });
  if (!s.is_ok()) {
    return s;
  }

  s = visitor.section(
      "RTMS", [this](snap::Writer& w) { rtm_->save_state(w); },
      [this](snap::Reader& r) { return rtm_->restore_state(r); });
  if (!s.is_ok()) {
    return s;
  }

  s = visitor.section(
      "STOR", [this](snap::Writer& w) { storage_->save_state(w); },
      [this](snap::Reader& r) { return storage_->restore_state(r); });
  if (!s.is_ok()) {
    return s;
  }

  s = visitor.section(
      "IPCP", [this](snap::Writer& w) { proxy_->save_state(w); },
      [this](snap::Reader& r) { return proxy_->restore_state(r); });
  if (!s.is_ok()) {
    return s;
  }

  s = visitor.section(
      "UPDT", [this](snap::Writer& w) { updater_->save_state(w); },
      [this](snap::Reader& r) { return updater_->restore_state(r); });
  if (!s.is_ok()) {
    return s;
  }

  s = visitor.section(
      "FALT",
      [this](snap::Writer& w) {
        w.boolean(fault_engine_ != nullptr);
        if (fault_engine_ != nullptr) {
          fault_engine_->save_state(w);
        }
      },
      [this](snap::Reader& r) {
        const bool present = r.boolean();
        if (present != (fault_engine_ != nullptr)) {
          return make_error(
              Err::kInvalidArgument,
              "snapshot fault-engine presence differs from this platform");
        }
        if (present) {
          return fault_engine_->restore_state(r);
        }
        return Status::ok();
      });
  return s;
}

Result<snap::Snapshot> Platform::save() const {
  if (loader_->job_has_callback()) {
    return make_error(Err::kUnavailable,
                      "cannot snapshot while an async load with a completion "
                      "callback is in flight (let the update finish first)");
  }
  if (kernel_->timers().active_count() != 0) {
    return make_error(Err::kUnavailable,
                      "cannot snapshot while software timers are active "
                      "(timer callbacks cannot travel)");
  }
  snap::SaveVisitor visitor;
  // The save closures of the walk never mutate; visit_state is non-const
  // only because the restore closures bind mutable state.
  Platform& self = const_cast<Platform&>(*this);
  if (Status s = self.visit_state(visitor); !s.is_ok()) {
    return s;
  }
  return visitor.take();
}

Status Platform::restore(const snap::Snapshot& snapshot) {
  memr_rewind_ =
      last_restore_digest_ != 0 && snapshot.digest() == last_restore_digest_;
  snap::RestoreVisitor visitor(snapshot);
  const Status walked = visit_state(visitor);
  memr_rewind_ = false;
  if (!walked.is_ok()) {
    // The platform may be partially overwritten; in particular memory may no
    // longer match any snapshot, so the rewind fast path must not fire.
    last_restore_digest_ = 0;
    return walked;
  }
  last_restore_digest_ = snapshot.digest();
  // The machine's policy pointer is wiring, not serialized state: armed
  // exactly when the restored platform is past secure boot.
  machine_->set_policy(booted_ ? mpu_.get() : nullptr);
  return Status::ok();
}

Result<std::unique_ptr<Platform>> Platform::clone() const {
  auto snapshot = save();
  if (!snapshot.is_ok()) {
    return snapshot.status();
  }
  // No boot(): the clone's post-boot state — locked EA-MPU, verified
  // firmware, kernel tasks — travels inside the snapshot.  That skips secure
  // boot but not its cost: a clone serializes and re-parses the whole memory
  // image, and bench_snapshot measures it at about 2 ms against about 0.8 ms
  // per reboot.  Fork-mode speed comes from restore()'s dirty-range rewind
  // onto a platform that is already booted, not from clone().
  auto copy = std::make_unique<Platform>(config_);
  if (Status s = copy->restore(*snapshot); !s.is_ok()) {
    return s;
  }
  return copy;
}

Result<Platform::Config> Platform::config_from_snapshot(
    const snap::Snapshot& snapshot, const LogContext* log) {
  const ByteVec* payload = snapshot.find("CONF");
  if (payload == nullptr) {
    return make_error(Err::kCorrupt, "snapshot missing section 'CONF'");
  }
  snap::Reader r(*payload);
  Config config;
  const std::uint32_t mem_size = r.u32();
  if (mem_size != sim::kMemSize) {
    return make_error(Err::kInvalidArgument,
                      "snapshot machine has " + std::to_string(mem_size) +
                          " bytes of memory; this build simulates " +
                          std::to_string(sim::kMemSize));
  }
  config.tick_period = r.u32();
  r.raw(config.kp);
  config.rng_seed = r.u64();
  config.lint_mode = static_cast<LintMode>(r.u8());
  const std::string plan_text = r.str();
  const std::uint64_t plan_seed = r.u64();
  const ByteVec costs = r.blob();
  if (!r.ok() || costs.size() != sizeof(sim::CostModel)) {
    return make_error(Err::kCorrupt, "snapshot section 'CONF' truncated");
  }
  std::memcpy(&config.costs, costs.data(), sizeof(sim::CostModel));
  if (!plan_text.empty()) {
    auto plan = fault::FaultPlan::parse(plan_text);
    if (!plan.is_ok()) {
      return plan.status();
    }
    config.fault_plan = std::move(*plan);
  }
  config.fault_plan.seed = plan_seed;
  config.log = log;
  // The lint analysis config is host tuning, not serialized — it comes back
  // default (docs/SNAPSHOT.md).
  return config;
}

Result<std::uint64_t> Platform::snapshot_cycle(const snap::Snapshot& snapshot) {
  const ByteVec* payload = snapshot.find("MACH");
  if (payload == nullptr) {
    return make_error(Err::kCorrupt, "snapshot missing section 'MACH'");
  }
  snap::Reader r(*payload);
  for (std::size_t i = 0; i < isa::kNumGprs + 2; ++i) {
    r.u32();  // registers, EIP, EFLAGS — the cycle clock follows
  }
  const std::uint64_t cycle = r.u64();
  if (!r.ok()) {
    return make_error(Err::kCorrupt, "snapshot section 'MACH' truncated");
  }
  return cycle;
}

}  // namespace tytan::core

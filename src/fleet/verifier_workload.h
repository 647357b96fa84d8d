// The fleet's remote-attestation verifier workload (paper §3/§4 at
// population scale): bring up N devices, deploy one released binary to all
// of them, let the fleet run, then challenge every device with a fresh
// nonce and verify every report against the golden database.
//
// This is the workload tytan-fleet and bench_fleet drive; the simulated
// results (reports, cycle counts, outcomes) are deterministic for a given
// config regardless of thread count — only the host-side timing varies.
#pragma once

#include <string>

#include "fleet/fleet.h"

namespace tytan::fleet {

struct WorkloadConfig {
  FleetConfig fleet{};
  /// Total simulated cycles per device between deploy and attestation.
  std::uint64_t cycles = 2'000'000;
  /// Attestation sweeps after the run (>= 1).  Each sweep is one round — one
  /// span trace id — per device; multiple sweeps exercise the nonce ledger
  /// (and give nonce-replay clauses a consumed challenge to replay).
  unsigned attest_sweeps = 1;
  /// Release registered in the golden database and deployed everywhere.
  std::string release_name = "fleet-fw";
  unsigned release_version = 1;
  /// Peak-32 source for the deployed task; empty selects the built-in
  /// heartbeat task (counter + kSysDelay loop).
  std::string task_source;
  /// Anomaly injection (tests / CI fault-injection smoke).  If >= 0:
  ///   rogue_device — that device's attested task is swapped for a binary the
  ///     golden database never blessed, so its attestation fails;
  ///   fault_device — that device additionally loads a task that trips the
  ///     EA-MPU once and is killed, spiking its fault counters.
  int rogue_device = -1;
  int fault_device = -1;
};

struct WorkloadResult {
  Status status;                 ///< first device or assembly error
  std::size_t devices = 0;
  std::size_t attested = 0;      ///< devices holding a report
  std::size_t verified = 0;
  Fleet::Totals totals{};
  // Host-side timing (wall clock; excluded from any determinism contract).
  double boot_seconds = 0.0;
  double run_seconds = 0.0;
  double attest_seconds = 0.0;
  double total_seconds = 0.0;
  [[nodiscard]] double devices_per_sec() const {
    return total_seconds > 0.0 ? static_cast<double>(devices) / total_seconds : 0.0;
  }
  /// Attestations (every device, every sweep) per second of the attest phase.
  [[nodiscard]] double attests_per_sec() const {
    return attest_seconds > 0.0 ? static_cast<double>(totals.attestations) / attest_seconds
                                : 0.0;
  }
  [[nodiscard]] bool all_verified() const {
    return status.is_ok() && verified == devices;
  }
};

/// The built-in heartbeat task (secure, attestable, yields via kSysDelay).
[[nodiscard]] std::string default_task_source();

/// Run the full workload on `fleet`-many devices: bring_up, deploy, run,
/// attest_all, aggregate_metrics.  The fleet outlives the call through
/// `fleet` so callers can inspect per-device reports and metrics.
WorkloadResult run_verifier_workload(Fleet& fleet, const WorkloadConfig& config);

/// Convenience: construct a fleet from config.fleet and run on it.
WorkloadResult run_verifier_workload(const WorkloadConfig& config);

}  // namespace tytan::fleet

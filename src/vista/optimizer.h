#ifndef VISTA_VISTA_OPTIMIZER_H_
#define VISTA_VISTA_OPTIMIZER_H_

#include <cstdint>
#include <string>

#include "common/bytes.h"
#include "common/status.h"
#include "dataflow/engine.h"
#include "vista/estimator.h"
#include "vista/roster.h"

namespace vista {

/// Fixed-but-adjustable optimizer parameters (Table 1(C)).
struct OptimizerParams {
  /// Operating System Reserved Memory.
  int64_t mem_os_rsv = GiB(3);
  /// Core Memory per best-practice guidelines.
  int64_t mem_core = static_cast<int64_t>(2.4 * static_cast<double>(kGiB));
  /// Maximum size of a data partition.
  int64_t p_max = MiB(100);
  /// Maximum broadcast size.
  int64_t b_max = MiB(100);
  /// Cap recommended for cpu.
  int cpu_max = 8;
  /// Fudge factor for size blowup of binary feature vectors as managed
  /// objects.
  double alpha = 2.0;
  /// True when the downstream model M executes inside the DL system
  /// (e.g. an MLP trained by the DL system) rather than in PD User memory.
  bool model_in_dl_memory = false;
};

/// The decisions Vista sets (Table 1(B)).
struct OptimizerDecisions {
  int64_t mem_storage = 0;
  int64_t mem_user = 0;
  int64_t mem_dl = 0;
  int cpu = 0;
  int64_t num_partitions = 0;
  df::JoinStrategy join = df::JoinStrategy::kShuffleHash;
  df::PersistenceFormat persistence = df::PersistenceFormat::kDeserialized;

  std::string ToString() const;
};

/// Algorithm 1: linear search on cpu satisfying constraints (9)-(15).
/// Returns ResourceExhausted when System Memory cannot satisfy the
/// constraints for any cpu (the user should provision more memory).
Result<OptimizerDecisions> OptimizeFeatureTransfer(
    const SystemEnv& env, const RosterEntry& entry,
    const TransferWorkload& workload, const DataStats& stats,
    const OptimizerParams& params = {});

/// Eq. 13-14 helper: the smallest multiple of (cpu x num_nodes) such that
/// partitions stay under p_max (procedure NumPartitions in Algorithm 1).
int64_t ComputeNumPartitions(int64_t s_single, int cpu, int num_nodes,
                             int64_t p_max);

}  // namespace vista

#endif  // VISTA_VISTA_OPTIMIZER_H_

#include "vista/optimizer.h"

#include <algorithm>
#include <sstream>

namespace vista {

std::string OptimizerDecisions::ToString() const {
  std::ostringstream os;
  os << "cpu=" << cpu << " np=" << num_partitions
     << " join=" << df::JoinStrategyToString(join)
     << " pers=" << df::PersistenceFormatToString(persistence)
     << " mem{storage=" << FormatBytes(mem_storage)
     << ", user=" << FormatBytes(mem_user) << ", dl=" << FormatBytes(mem_dl)
     << "}";
  return os.str();
}

int64_t ComputeNumPartitions(int64_t s_single, int cpu, int num_nodes,
                             int64_t p_max) {
  const int64_t total_cores =
      static_cast<int64_t>(cpu) * static_cast<int64_t>(num_nodes);
  const int64_t denom = p_max * total_cores;
  const int64_t z = (s_single + denom - 1) / denom;  // ceil
  return std::max<int64_t>(1, z) * total_cores;
}

Result<OptimizerDecisions> OptimizeFeatureTransfer(
    const SystemEnv& env, const RosterEntry& entry,
    const TransferWorkload& workload, const DataStats& stats,
    const OptimizerParams& params) {
  VISTA_ASSIGN_OR_RETURN(
      SizeEstimates est,
      EstimateSizes(entry, workload, stats, params.alpha));
  const int64_t model_mem = EstimateModelMemoryBytes(entry, workload, stats);
  const int64_t f_ser = entry.memory.serialized_bytes;
  const int64_t f_mem = entry.memory.runtime_cpu_bytes;
  const int64_t f_mem_gpu = entry.memory.runtime_gpu_bytes;

  const int x_hi = std::min(env.cores_per_node, params.cpu_max) - 1;
  for (int x = x_hi; x >= 1; --x) {
    // Eq. 15: GPU memory bound, when GPUs are present.
    if (env.gpu_memory_bytes > 0) {
      const int64_t gpu_need =
          static_cast<int64_t>(x) *
          std::max(f_mem_gpu,
                   params.model_in_dl_memory ? model_mem : int64_t{0});
      if (gpu_need >= env.gpu_memory_bytes) continue;
    }

    // The partitioning basis is the peak per-thread UDF buffer blown up by
    // alpha: decoded inputs plus produced feature tensors (Section 4.1's
    // "buffers to read inputs, and to hold features created by CNN
    // inference").
    const int64_t udf_table_bytes = static_cast<int64_t>(
        params.alpha * static_cast<double>(stats.num_records) *
        static_cast<double>(est.udf_record_bytes));
    const int64_t np = ComputeNumPartitions(
        std::max(est.s_single, udf_table_bytes), x, env.num_nodes,
        params.p_max);
    const int64_t partition_bytes = (udf_table_bytes + np - 1) / np;

    // Eq. 11: DL Execution Memory, plus the Eq. 16 Temp term — each
    // inference thread holds the conv kernels' packed GEMM panels on top
    // of the runtime footprint.
    int64_t mem_dl = static_cast<int64_t>(x) * f_mem;
    if (params.model_in_dl_memory) {
      mem_dl = std::max(mem_dl, static_cast<int64_t>(x) * model_mem);
    }
    mem_dl += static_cast<int64_t>(x) * est.conv_temp_bytes;

    const int64_t mem_worker =
        env.node_memory_bytes - params.mem_os_rsv - mem_dl;

    // Eq. 10: User memory. The serialized CNN is shared across the
    // worker's threads; per-thread UDF buffers scale with partition size
    // (alpha is already folded into partition_bytes). A 10% headroom
    // absorbs rounding between planning and execution.
    int64_t mem_user =
        f_ser + static_cast<int64_t>(1.1 * x *
                                     static_cast<double>(partition_bytes));
    if (!params.model_in_dl_memory) {
      mem_user = std::max(mem_user, static_cast<int64_t>(x) * model_mem);
    }

    // Eq. 12 feasibility: Storage gets the remainder and must be positive
    // beyond the Core requirement.
    if (mem_worker - mem_user > params.mem_core) {
      OptimizerDecisions d;
      d.cpu = x;
      d.num_partitions = np;
      d.mem_user = mem_user;
      d.mem_dl = mem_dl;
      d.mem_storage = mem_worker - mem_user - params.mem_core;
      d.join = est.t_str_bytes < params.b_max ? df::JoinStrategy::kBroadcast
                                              : df::JoinStrategy::kShuffleHash;
      // Conservative: if the peak adjacent pair of intermediate tables
      // cannot be storage-resident, spills are likely; use the serialized
      // format to shrink them (Section 4.3).
      const int64_t s_double_per_worker = est.s_double / env.num_nodes;
      d.persistence = d.mem_storage < s_double_per_worker
                          ? df::PersistenceFormat::kSerialized
                          : df::PersistenceFormat::kDeserialized;
      return d;
    }
  }
  return Status::ResourceExhausted(
      "no feasible configuration: System Memory too small for " +
      entry.arch.name() +
      " feature transfer (provision machines with more memory)");
}

}  // namespace vista

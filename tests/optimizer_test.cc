#include <gtest/gtest.h>

#include <algorithm>

#include "features/synthetic.h"
#include "vista/estimator.h"
#include "vista/optimizer.h"

namespace vista {
namespace {

class OptimizerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto roster = Roster::Default();
    ASSERT_TRUE(roster.ok());
    roster_ = std::make_unique<Roster>(std::move(roster).value());
  }

  DataStats Foods() {
    DataStats stats;
    stats.num_records = 20000;
    stats.num_struct_features = 130;
    return stats;
  }

  DataStats Amazon() {
    DataStats stats;
    stats.num_records = 200000;
    stats.num_struct_features = 200;
    return stats;
  }

  TransferWorkload Workload(dl::KnownCnn cnn, int layers) {
    auto w = TransferWorkload::TopLayers(*roster_, cnn, layers);
    EXPECT_TRUE(w.ok());
    return *w;
  }

  const RosterEntry& Entry(dl::KnownCnn cnn) {
    return **roster_->Lookup(cnn);
  }

  std::unique_ptr<Roster> roster_;
};

TEST_F(OptimizerTest, EstimatorMatchesEq16) {
  // |Ti| = alpha*(8+8+4*|g(f(I))|)*n + |Tstr| with full feature tensors.
  const auto& entry = Entry(dl::KnownCnn::kAlexNet);
  TransferWorkload w = Workload(dl::KnownCnn::kAlexNet, 2);  // fc7, fc8.
  DataStats stats = Foods();
  auto est = EstimateSizes(entry, w, stats, 2.0);
  ASSERT_TRUE(est.ok());
  const int64_t t_str = 20000 * (16 + 4 * 130);
  EXPECT_EQ(est->t_str_bytes, t_str);
  // fc7 has 4096 features.
  EXPECT_EQ(est->t_i_bytes[0],
            2 * 20000 * (16 + 4096LL * 4) + t_str);
  EXPECT_EQ(est->s_single,
            std::max(est->t_i_bytes[0], est->t_i_bytes[1]));
}

TEST_F(OptimizerTest, SDoubleIsAdjacentPairPeak) {
  const auto& entry = Entry(dl::KnownCnn::kResNet50);
  TransferWorkload w = Workload(dl::KnownCnn::kResNet50, 5);
  auto est = EstimateSizes(entry, w, Foods());
  ASSERT_TRUE(est.ok());
  // conv4_6 + conv5_1 dominate adjacent pairs.
  EXPECT_EQ(est->s_double,
            est->t_i_bytes[0] + est->t_i_bytes[1] - est->t_str_bytes);
  EXPECT_GT(est->s_double, est->s_single);
}

TEST_F(OptimizerTest, SerializedEstimatesAreSmaller) {
  const auto& entry = Entry(dl::KnownCnn::kResNet50);
  TransferWorkload w = Workload(dl::KnownCnn::kResNet50, 5);
  auto est = EstimateSizes(entry, w, Foods());
  ASSERT_TRUE(est.ok());
  for (size_t i = 0; i < est->t_i_bytes.size(); ++i) {
    EXPECT_LT(est->t_i_serialized_bytes[i], est->t_i_bytes[i]);
  }
}

TEST_F(OptimizerTest, EagerTableDominatesEveryTi) {
  const auto& entry = Entry(dl::KnownCnn::kAlexNet);
  TransferWorkload w = Workload(dl::KnownCnn::kAlexNet, 4);
  auto est = EstimateSizes(entry, w, Foods());
  ASSERT_TRUE(est.ok());
  for (int64_t ti : est->t_i_bytes) {
    EXPECT_GE(est->eager_table_bytes, ti);
  }
}

TEST_F(OptimizerTest, PicksSevenCoresForAlexNetOnFoods) {
  SystemEnv env;
  auto d = OptimizeFeatureTransfer(env, Entry(dl::KnownCnn::kAlexNet),
                                   Workload(dl::KnownCnn::kAlexNet, 4),
                                   Foods());
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->cpu, 7);  // Section 5.3: AlexNet -> 7.
}

TEST_F(OptimizerTest, PicksSevenCoresForResNetOnFoods) {
  SystemEnv env;
  auto d = OptimizeFeatureTransfer(env, Entry(dl::KnownCnn::kResNet50),
                                   Workload(dl::KnownCnn::kResNet50, 5),
                                   Foods());
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->cpu, 7);  // Section 5.3: ResNet50 -> 7.
}

TEST_F(OptimizerTest, PicksFourCoresForVggOnFoods) {
  SystemEnv env;
  auto d = OptimizeFeatureTransfer(env, Entry(dl::KnownCnn::kVgg16),
                                   Workload(dl::KnownCnn::kVgg16, 3),
                                   Foods());
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->cpu, 4);  // Section 5.3: VGG16 -> 4 (CNN memory blowup).
}

TEST_F(OptimizerTest, ConstraintsHoldAcrossWorkloads) {
  SystemEnv env;
  OptimizerParams params;
  for (auto cnn : {dl::KnownCnn::kAlexNet, dl::KnownCnn::kVgg16,
                   dl::KnownCnn::kResNet50}) {
    for (const DataStats& stats : {Foods(), Amazon()}) {
      const auto& entry = Entry(cnn);
      const int max_layers = cnn == dl::KnownCnn::kVgg16 ? 3 : 4;
      TransferWorkload w = Workload(cnn, max_layers);
      auto d = OptimizeFeatureTransfer(env, entry, w, stats, params);
      ASSERT_TRUE(d.ok()) << entry.name();
      auto est = EstimateSizes(entry, w, stats, params.alpha);
      ASSERT_TRUE(est.ok());
      // Eq. 9: 1 <= cpu <= min(cpu_sys, cpu_max) - 1.
      EXPECT_GE(d->cpu, 1);
      EXPECT_LE(d->cpu, 7);
      // Eq. 13: np a positive multiple of cpu * nnodes.
      EXPECT_GT(d->num_partitions, 0);
      EXPECT_EQ(d->num_partitions % (d->cpu * env.num_nodes), 0);
      // Eq. 14: partitions bounded by p_max.
      EXPECT_LT((est->s_single + d->num_partitions - 1) / d->num_partitions,
                params.p_max);
      // Eq. 12: regions fit in system memory.
      EXPECT_LT(params.mem_os_rsv + d->mem_dl + d->mem_user +
                    params.mem_core + d->mem_storage,
                env.node_memory_bytes + 1);
      EXPECT_GT(d->mem_storage, 0);
    }
  }
}

TEST_F(OptimizerTest, BroadcastChosenForSmallStructTable) {
  SystemEnv env;
  DataStats small = Foods();  // 20000 * ~536 B ~= 10 MB < 100 MB.
  auto d = OptimizeFeatureTransfer(env, Entry(dl::KnownCnn::kAlexNet),
                                   Workload(dl::KnownCnn::kAlexNet, 4),
                                   small);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->join, df::JoinStrategy::kBroadcast);
}

TEST_F(OptimizerTest, ShuffleChosenForLargeStructTable) {
  SystemEnv env;
  DataStats big = Foods();
  big.num_struct_features = 10000;  // 20000 * 40 KB = 800 MB > 100 MB.
  auto d = OptimizeFeatureTransfer(env, Entry(dl::KnownCnn::kAlexNet),
                                   Workload(dl::KnownCnn::kAlexNet, 4), big);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->join, df::JoinStrategy::kShuffleHash);
}

TEST_F(OptimizerTest, SerializedWhenIntermediatesExceedStorage) {
  SystemEnv env;
  auto d = OptimizeFeatureTransfer(env, Entry(dl::KnownCnn::kResNet50),
                                   Workload(dl::KnownCnn::kResNet50, 5),
                                   Amazon());
  ASSERT_TRUE(d.ok());
  // Amazon/ResNet50 intermediates dwarf per-worker storage.
  EXPECT_EQ(d->persistence, df::PersistenceFormat::kSerialized);
}

TEST_F(OptimizerTest, DeserializedWhenIntermediatesFit) {
  SystemEnv env;
  DataStats tiny = Foods();
  tiny.num_records = 1000;
  auto d = OptimizeFeatureTransfer(env, Entry(dl::KnownCnn::kAlexNet),
                                   Workload(dl::KnownCnn::kAlexNet, 4),
                                   tiny);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->persistence, df::PersistenceFormat::kDeserialized);
}

TEST_F(OptimizerTest, Int8FeatureBytesAreExactlyQuarterOfFp32) {
  for (auto cnn : {dl::KnownCnn::kAlexNet, dl::KnownCnn::kVgg16,
                   dl::KnownCnn::kResNet50}) {
    const auto& entry = Entry(cnn);
    TransferWorkload w = Workload(cnn, cnn == dl::KnownCnn::kVgg16 ? 3 : 4);
    for (int l : w.layers) {
      EXPECT_EQ(LayerFeatureBytes(entry.arch, l, dl::Precision::kInt8) * 4,
                LayerFeatureBytes(entry.arch, l, dl::Precision::kFp32))
          << entry.name() << " layer " << l;
    }
  }
}

TEST_F(OptimizerTest, Int8EstimatorShrinksFeaturePayloadOnly) {
  // Eq. 16 under int8: the feature payload drops to 1 byte/element while
  // the record key overhead and the structured table stay fp32-sized.
  const auto& entry = Entry(dl::KnownCnn::kAlexNet);
  TransferWorkload w = Workload(dl::KnownCnn::kAlexNet, 2);  // fc7, fc8.
  w.precision = dl::Precision::kInt8;
  auto est = EstimateSizes(entry, w, Foods(), 2.0);
  ASSERT_TRUE(est.ok());
  const int64_t t_str = 20000 * (16 + 4 * 130);
  EXPECT_EQ(est->t_str_bytes, t_str);
  EXPECT_EQ(est->t_i_bytes[0], 2 * 20000 * (16 + 4096LL * 1) + t_str);

  TransferWorkload w32 = Workload(dl::KnownCnn::kAlexNet, 2);
  auto est32 = EstimateSizes(entry, w32, Foods(), 2.0);
  ASSERT_TRUE(est32.ok());
  // The UDF inference buffers stay fp32 (the quantized path keeps layer
  // outputs in fp32 between hops), so that term must not shrink.
  EXPECT_EQ(est->udf_record_bytes, est32->udf_record_bytes);
  EXPECT_LT(est->s_double, est32->s_double);
}

TEST_F(OptimizerTest, Int8FlipsPersistenceToDeserialized) {
  // Twin of SerializedWhenIntermediatesExceedStorage: the same
  // ResNet50-on-Amazon workload whose fp32 intermediates overflow the
  // per-worker storage region fits once int8 quarters the feature bytes,
  // so the optimizer flips the persistence format.
  SystemEnv env;
  TransferWorkload w32 = Workload(dl::KnownCnn::kResNet50, 5);
  auto d32 = OptimizeFeatureTransfer(env, Entry(dl::KnownCnn::kResNet50),
                                     w32, Amazon());
  ASSERT_TRUE(d32.ok());
  ASSERT_EQ(d32->persistence, df::PersistenceFormat::kSerialized);

  TransferWorkload w8 = Workload(dl::KnownCnn::kResNet50, 5);
  w8.precision = dl::Precision::kInt8;
  auto d8 = OptimizeFeatureTransfer(env, Entry(dl::KnownCnn::kResNet50),
                                    w8, Amazon());
  ASSERT_TRUE(d8.ok());
  EXPECT_EQ(d8->persistence, df::PersistenceFormat::kDeserialized);
}

TEST_F(OptimizerTest, InfeasibleOnTinyNodes) {
  SystemEnv env;
  env.node_memory_bytes = GiB(8);  // Too small for VGG replicas + regions.
  auto d = OptimizeFeatureTransfer(env, Entry(dl::KnownCnn::kVgg16),
                                   Workload(dl::KnownCnn::kVgg16, 3),
                                   Foods());
  EXPECT_FALSE(d.ok());
  EXPECT_TRUE(d.status().IsResourceExhausted());
}

TEST_F(OptimizerTest, GpuConstraintLowersParallelism) {
  SystemEnv cpu_env;
  SystemEnv gpu_env;
  gpu_env.gpu_memory_bytes = GiB(12);
  const auto& entry = Entry(dl::KnownCnn::kVgg16);
  TransferWorkload w = Workload(dl::KnownCnn::kVgg16, 3);
  auto with_gpu = OptimizeFeatureTransfer(gpu_env, entry, w, Foods());
  ASSERT_TRUE(with_gpu.ok());
  // Eq. 15: cpu * |f|_mem_gpu < 12 GB with VGG16's GPU footprint.
  EXPECT_LT(with_gpu->cpu * entry.memory.runtime_gpu_bytes,
            gpu_env.gpu_memory_bytes);
}

TEST_F(OptimizerTest, NumPartitionsHelper) {
  // ceil(s_single / (p_max * total_cores)) * total_cores.
  EXPECT_EQ(ComputeNumPartitions(GiB(10), 5, 8, MiB(100)), 3 * 40);
  EXPECT_EQ(ComputeNumPartitions(1, 4, 2, MiB(100)), 8);
}

TEST_F(OptimizerTest, DecisionsToStringIsInformative) {
  SystemEnv env;
  auto d = OptimizeFeatureTransfer(env, Entry(dl::KnownCnn::kAlexNet),
                                   Workload(dl::KnownCnn::kAlexNet, 4),
                                   Foods());
  ASSERT_TRUE(d.ok());
  const std::string s = d->ToString();
  EXPECT_NE(s.find("cpu="), std::string::npos);
  EXPECT_NE(s.find("join="), std::string::npos);
}

TEST_F(OptimizerTest, ModelMemoryScalesWithLargestLayer) {
  const auto& alex = Entry(dl::KnownCnn::kAlexNet);
  const auto& resnet = Entry(dl::KnownCnn::kResNet50);
  TransferWorkload wa = Workload(dl::KnownCnn::kAlexNet, 4);
  TransferWorkload wr = Workload(dl::KnownCnn::kResNet50, 5);
  // ResNet50's top-5 includes conv4_6 whose pooled features (4096)
  // match AlexNet's fc layers; both are modest for LR.
  EXPECT_GT(EstimateModelMemoryBytes(resnet, wr, Foods()), 0);
  EXPECT_GT(EstimateModelMemoryBytes(alex, wa, Foods()), 0);
  // MLP models are much bigger than LR.
  TransferWorkload mlp = wa;
  mlp.model = DownstreamModel::kMlp;
  EXPECT_GT(EstimateModelMemoryBytes(alex, mlp, Foods()),
            10 * EstimateModelMemoryBytes(alex, wa, Foods()));
}

TEST_F(OptimizerTest, ConvTempEstimatesReflectImplicitGemm) {
  // The Eq. 16 Temp term is the packed GEMM panels of the conv and FC
  // kernels (implicit_gemm_test pins it to the measured arena peak).
  const auto& entry = Entry(dl::KnownCnn::kVgg16);
  TransferWorkload w = Workload(dl::KnownCnn::kVgg16, 2);
  auto est = EstimateSizes(entry, w, Foods());
  ASSERT_TRUE(est.ok());
  EXPECT_GT(est->conv_temp_bytes, 0);
  // Layer-level: the per-layer walk agrees with the workload maximum.
  int64_t peak = 0;
  for (int l = 0; l < entry.arch.num_layers(); ++l) {
    peak = std::max(peak, ConvTempBytes(entry.arch, l));
  }
  EXPECT_EQ(peak, est->conv_temp_bytes);
}

TEST_F(OptimizerTest, DlMemoryIsRuntimePlusConvTempPerThread) {
  // Eq. 11 plus the Eq. 16 Temp term, exactly: with the downstream model in
  // PD User memory (LR), each of the cpu inference threads holds the CNN's
  // runtime footprint and its kernels' packed GEMM panels.
  for (dl::KnownCnn cnn : {dl::KnownCnn::kAlexNet, dl::KnownCnn::kVgg16,
                           dl::KnownCnn::kResNet50}) {
    const auto& entry = Entry(cnn);
    TransferWorkload w = Workload(cnn, 2);
    ASSERT_EQ(w.model, DownstreamModel::kLogisticRegression);
    DataStats stats = Amazon();
    auto est = EstimateSizes(entry, w, stats);
    ASSERT_TRUE(est.ok());
    ASSERT_GT(est->conv_temp_bytes, 0);
    int feasible = 0;
    for (int64_t mem : {GiB(8), GiB(16), GiB(32), GiB(64)}) {
      SystemEnv env;
      env.node_memory_bytes = mem;
      auto d = OptimizeFeatureTransfer(env, entry, w, stats);
      if (!d.ok()) continue;
      ++feasible;
      const int64_t per_thread =
          entry.memory.runtime_cpu_bytes + est->conv_temp_bytes;
      EXPECT_EQ(d->mem_dl, d->cpu * per_thread)
          << entry.arch.name() << " at " << mem << " B";
    }
    EXPECT_GE(feasible, 2) << entry.arch.name();
  }
}

}  // namespace
}  // namespace vista

// Coverage sweep: exercises the remaining less-traveled paths — stage
// construction for pre-materialized plans, simulator pre-materialization,
// concurrent engine usage under storage pressure, workload construction
// errors, and spec round-trips for grouped convolutions.

#include <atomic>

#include <gtest/gtest.h>

#include "common/random.h"
#include "dl/model_parser.h"
#include "registry_reads.h"
#include "vista/experiments.h"

namespace vista {
namespace {

TEST(SimStagesTest, PreMaterializedLazyReadsFilesNotCache) {
  auto roster = Roster::Default().value();
  const RosterEntry* entry = roster.Lookup(dl::KnownCnn::kResNet50).value();
  auto workload =
      TransferWorkload::TopLayers(roster, dl::KnownCnn::kResNet50, 5)
          .value();
  auto plan = CompilePlan(LogicalPlan::kLazy, workload,
                          /*pre_materialized_base=*/true)
                  .value();
  SimExecutorConfig config;
  config.env = SystemEnv{};
  config.node = sim::NodeResources{};
  config.profile = SparkDefaultProfile(config.env, 5);
  SimExecutor executor(entry);
  auto stages =
      executor.BuildStages(plan, workload, FoodsDataStats(), config);
  ASSERT_TRUE(stages.ok());
  // Every pass-through/partial inference hop re-reads the base-layer file
  // from disk (Appendix B's IO cost), so inference stages carry disk reads.
  int file_reading_stages = 0;
  for (const auto& stage : *stages) {
    if (stage.name.rfind("inference:", 0) != 0) continue;
    int64_t dread = 0;
    for (const auto& t : stage.tasks) dread += t.disk_read_bytes;
    if (dread > 0) ++file_reading_stages;
  }
  EXPECT_EQ(file_reading_stages, 5);
  // And no separate image-read stage exists.
  for (const auto& stage : *stages) {
    EXPECT_NE(stage.name, "read:images");
  }
}

TEST(SimStagesTest, PreMaterializationReportsFileSize) {
  auto roster = Roster::Default().value();
  const RosterEntry* entry = roster.Lookup(dl::KnownCnn::kAlexNet).value();
  auto workload =
      TransferWorkload::TopLayers(roster, dl::KnownCnn::kAlexNet, 4)
          .value();
  SimExecutorConfig config;
  config.env = SystemEnv{};
  config.node = sim::NodeResources{};
  config.profile = SparkDefaultProfile(config.env, 5);
  SimExecutor executor(entry);
  int64_t file_bytes = 0;
  auto result = executor.SimulatePreMaterialization(
      workload, FoodsDataStats(), config, &file_bytes);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->crashed());
  // conv5 of AlexNet, serialized: n * (16 + 0.7 * 36864).
  EXPECT_EQ(file_bytes,
            executor.MaterializedLayerFileBytes(4, FoodsDataStats()));
  EXPECT_GT(file_bytes, MiB(400));
  EXPECT_LT(file_bytes, MiB(600));
}

TEST(WorkloadTest, TopLayersValidatesRange) {
  auto roster = Roster::Default().value();
  EXPECT_FALSE(
      TransferWorkload::TopLayers(roster, dl::KnownCnn::kAlexNet, 0).ok());
  EXPECT_FALSE(
      TransferWorkload::TopLayers(roster, dl::KnownCnn::kAlexNet, 99).ok());
  auto w = TransferWorkload::TopLayers(roster, dl::KnownCnn::kVgg16, 8);
  ASSERT_TRUE(w.ok());  // All 8 logical layers.
  EXPECT_EQ(w->layers.front(), 0);
}

TEST(ModelParserTest, GroupedConvRoundTripsThroughSpec) {
  auto arch = dl::AlexNetArch().value();
  const std::string spec = dl::CnnSpecToString(arch);
  EXPECT_NE(spec.find("groups=2"), std::string::npos);
  auto parsed = dl::ParseCnnSpec(spec);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->total_params(), arch.total_params());
}

TEST(EngineConcurrencyTest, ParallelOperationsUnderStoragePressure) {
  // Joins, maps, and persists racing over a storage-starved engine: no
  // crashes, no lost records, spills happen and everything stays readable.
  df::EngineConfig config;
  config.num_workers = 2;
  config.cpus_per_worker = 4;
  config.budgets.storage = 64 * 1024;
  df::Engine engine(config);

  Rng rng(3);
  std::vector<df::Record> records;
  for (int i = 0; i < 400; ++i) {
    df::Record r;
    r.id = i;
    r.struct_features = {static_cast<float>(i % 2)};
    r.features.Append(Tensor::RandomGaussian(Shape{128}, &rng));
    records.push_back(std::move(r));
  }
  auto base = engine.MakeTable(records, 16).value();
  ASSERT_TRUE(
      engine.Persist(&base, df::PersistenceFormat::kSerialized).ok());

  std::atomic<int> failures{0};
  ThreadPool drivers(4);
  for (int round = 0; round < 4; ++round) {
    drivers.Submit([&engine, &base, &failures] {
      auto mapped = engine.MapPartitions(
          base, [](std::vector<df::Record> rs)
                    -> Result<std::vector<df::Record>> { return rs; });
      if (!mapped.ok() || mapped->num_records() != 400) {
        failures.fetch_add(1);
        return;
      }
      auto joined = engine.Join(base, *mapped,
                                df::JoinStrategy::kShuffleHash, 8);
      if (!joined.ok() || joined->num_records() != 400) {
        failures.fetch_add(1);
      }
    });
  }
  drivers.WaitIdle();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(RegisteredCounter(engine.metrics(), "spill.writes"), 0);
  // The cached base table is still intact.
  auto rows = engine.Collect(base);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 400u);
}

TEST(PartitionCoverageTest, SizeQueriesAcrossFormats) {
  std::vector<df::Record> records;
  Rng rng(9);
  for (int i = 0; i < 8; ++i) {
    df::Record r;
    r.id = i;
    Tensor t(Shape{64});
    t.set(i, 1.0f);  // Very sparse.
    r.features.Append(std::move(t));
    records.push_back(std::move(r));
  }
  df::Partition p(std::move(records));
  const int64_t deser =
      p.memory_bytes_as(df::PersistenceFormat::kDeserialized);
  const int64_t ser = p.memory_bytes_as(df::PersistenceFormat::kSerialized);
  EXPECT_GT(deser, ser);
  // Size queries are consistent regardless of resident format.
  ASSERT_TRUE(p.ConvertTo(df::PersistenceFormat::kSerialized).ok());
  EXPECT_EQ(p.memory_bytes_as(df::PersistenceFormat::kDeserialized), deser);
  EXPECT_EQ(p.memory_bytes(), ser);
}

TEST(VistaOptionsTest, LayerNamesResolveAcrossRoster) {
  // Cross-check that the workload layer indices the optimizer plans with
  // resolve to the paper's layer names for every roster CNN.
  auto roster = Roster::Default().value();
  struct Case {
    dl::KnownCnn cnn;
    int layers;
    const char* bottom;
    const char* top;
  };
  const Case cases[] = {
      {dl::KnownCnn::kAlexNet, 4, "conv5", "fc8"},
      {dl::KnownCnn::kVgg16, 3, "fc6", "fc8"},
      {dl::KnownCnn::kResNet50, 5, "conv4_6", "fc6"},
  };
  for (const Case& c : cases) {
    const RosterEntry* entry = roster.Lookup(c.cnn).value();
    auto w = TransferWorkload::TopLayers(roster, c.cnn, c.layers).value();
    EXPECT_EQ(entry->arch.layer(w.layers.front()).name, c.bottom);
    EXPECT_EQ(entry->arch.layer(w.layers.back()).name, c.top);
  }
}

}  // namespace
}  // namespace vista

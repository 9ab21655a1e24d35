#ifndef VISTA_VISTA_ROSTER_H_
#define VISTA_VISTA_ROSTER_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "dl/cnn.h"
#include "dl/model_zoo.h"

namespace vista {

/// One CNN in Vista's roster: the architecture (exact layer statistics)
/// plus deployment memory footprints. Vista consults the roster instead of
/// asking users for CNN internals (Section 3.3). Custom (registered)
/// entries have no KnownCnn tag and are addressed by name.
struct RosterEntry {
  std::optional<dl::KnownCnn> cnn;
  dl::CnnArchitecture arch;
  dl::CnnMemoryStats memory;

  const std::string& name() const { return arch.name(); }
};

/// The roster of supported CNNs with cached architectures. Beyond the
/// built-in trio, arbitrary architectures can be registered (e.g. parsed
/// from the model-spec format, dl/model_parser.h) — the extension the
/// paper leaves to future work.
class Roster {
 public:
  /// Builds the default roster (AlexNet, VGG16, ResNet50).
  static Result<Roster> Default();

  /// Registers a custom architecture with its deployment memory stats.
  /// If `memory.runtime_cpu_bytes` is zero, a conservative footprint is
  /// derived from the architecture (weights + the largest layer's
  /// activations, doubled for workspace).
  Status Register(dl::CnnArchitecture arch, dl::CnnMemoryStats memory = {});

  Result<const RosterEntry*> Lookup(dl::KnownCnn cnn) const;
  /// Finds an entry by architecture name (works for built-ins and customs).
  Result<const RosterEntry*> LookupByName(const std::string& name) const;
  const std::vector<RosterEntry>& entries() const { return entries_; }

 private:
  std::vector<RosterEntry> entries_;
};

/// The declarative statement of a feature transfer workload
/// (Section 3.2): CNN f, layer indices L, and the downstream model M.
enum class DownstreamModel {
  kLogisticRegression,
  kMlp,
  kDecisionTree,
};

const char* DownstreamModelToString(DownstreamModel model);

struct TransferWorkload {
  dl::KnownCnn cnn = dl::KnownCnn::kAlexNet;
  /// Logical layer indices of interest, ascending (bottom-most first).
  std::vector<int> layers;
  DownstreamModel model = DownstreamModel::kLogisticRegression;
  int training_iterations = 10;
  /// Inference precision for the transfer: int8 runs the quantized kernel
  /// path. The size estimator charges int8 feature layers 1 byte/element
  /// (see LayerFeatureBytes), which can flip plan decisions.
  dl::Precision precision = dl::Precision::kFp32;

  /// Builds the workload for "explore the top |L| layers of f" — the
  /// paper's API shape.
  static Result<TransferWorkload> TopLayers(const Roster& roster,
                                            dl::KnownCnn cnn, int num_layers,
                                            DownstreamModel model =
                                                DownstreamModel::kLogisticRegression);
};

/// Statistics of the input data the user registers with Vista
/// (Table 1(A): Tstr, Timg plus "statistics about the data").
struct DataStats {
  int64_t num_records = 0;
  /// Structured features per record, including the label.
  int64_t num_struct_features = 0;
  /// Average compressed (on-disk) size of one raw image, e.g. JPEG.
  int64_t avg_image_file_bytes = 14 * 1024;
  /// Decoded image tensor shape is taken from the CNN's input shape.
  /// Fraction of nonzero values in CNN feature layers (drives the
  /// serialized/compressed size model; the paper measures 13%-36%).
  double feature_density = 0.35;
};

}  // namespace vista

#endif  // VISTA_VISTA_ROSTER_H_

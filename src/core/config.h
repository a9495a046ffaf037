// Configuration for STSM and its experiment harness.
//
// Defaults follow Section 5.1.3 / Table 3 of the paper; the scale knobs
// (hidden size, epochs, window lengths) are reduced in fast mode so the
// whole benchmark suite runs on a laptop CPU. Paper-equation parameters
// (tau, delta_m, epsilon_s, q_kk, q_ku, per-dataset lambda / epsilon_sg / K)
// keep their published values.

#ifndef STSM_CORE_CONFIG_H_
#define STSM_CORE_CONFIG_H_

#include <cstdint>
#include <string>

namespace stsm {

// Which temporal-correlation module the ST blocks use (Section 5.2.5).
enum class TemporalModule {
  kTcn,          // 1-D dilated causal convolutions (Eq. 5). Default.
  kTransformer,  // Transformer encoder + gated fusion (STSM-trans).
};

// Which distance function feeds the adjacency matrices and the
// pseudo-observations (Section 5.2.6, Table 11).
enum class DistanceMode {
  kEuclidean,       // STSM default.
  kRoadAll,         // STSM-rd-a: road distance for adjacency AND pseudo-obs.
  kRoadMatrixOnly,  // STSM-rd-m: road distance for adjacency only.
};

struct StsmConfig {
  // ---- Windows (Eq. 1) ----
  int input_length = 12;  // T.
  int horizon = 12;       // T'.

  // ---- Architecture (Section 3.4) ----
  int hidden_dim = 16;            // C'.
  int num_blocks = 2;             // L.
  int gcn_layers_per_block = 2;   // k in Eq. 8/9.
  int tcn_kernel = 2;             // Dilated conv kernel width.
  TemporalModule temporal_module = TemporalModule::kTcn;
  int attention_heads = 2;        // STSM-trans only.
  // Training-mode dropout on the fused input embedding and the transformer
  // residual branches. 0 (the default, matching the paper's setup) disables
  // it entirely; eval-mode forwards are always dropout-free regardless
  // (Module::SetTraining).
  float dropout = 0.0f;
  // Adds the last input value (a persistence baseline) to the output head,
  // so the network learns the residual correction. Not in the paper's
  // Eq. 13; compensates for the far smaller CPU training budget of this
  // reproduction (see DESIGN.md §5) and is applied to every STSM variant
  // equally so ablation comparisons are unaffected.
  bool input_skip = true;

  // ---- Adjacency (Eq. 2, Section 3.4.1) ----
  double epsilon_s = 0.05;   // Threshold for A_s.
  double epsilon_sg = 0.5;   // Threshold for A_sg (per-dataset, Table 3).
  int q_kk = 1;              // Temporal-similarity edges among observed.
  int q_ku = 1;              // Temporal-similarity edges into targets.
  int dtw_band = 12;         // Sakoe-Chiba band for daily-profile DTW.
  // Nearest observed sources used by the Eq. 3 pseudo-observations
  // (0 = all observed locations; see InverseDistanceWeights).
  int pseudo_neighbors = 8;
  // Use the literal 0/1 adjacency of Eq. 2 for A_s instead of the Gaussian
  // kernel weights (DESIGN.md §5.1). Exists for the design-choice ablation
  // bench; the weighted kernel is the default.
  bool binary_spatial_kernel = false;
  // Hold every adjacency (A_s, A_sg, DTW similarity) in CSR sparse form and
  // propagate through SpMM instead of dense MatMul (DESIGN.md §11). Same
  // thresholded weights and normalisation — metrics match the dense path to
  // float round-off — but memory and propagation cost scale with the edge
  // count, which is what makes city-scale graphs (Tables 6/7 city points)
  // feasible. Default off: the dense path stays bitwise what it was.
  bool sparse_adjacency = false;

  // ---- Masking (Sections 3.3 / 4.1) ----
  bool selective_masking = true;  // false = STSM-R / STSM-RNC random masking.
  double mask_ratio = 0.5;        // delta_m.
  int top_k = 35;                 // K (per-dataset, Table 3).

  // ---- Contrastive learning (Section 4.2) ----
  bool contrastive = true;   // false = STSM-NC / STSM-RNC.
  float tau = 0.5f;          // Temperature of Eq. 17.
  float lambda = 0.01f;      // Loss weight of Eq. 18 (per-dataset, Table 3).

  // ---- Distances (Table 11) ----
  DistanceMode distance_mode = DistanceMode::kEuclidean;

  // ---- Training ----
  // Validation-based model selection: after each epoch, mask the
  // validation locations (mirroring the unobserved-region test condition),
  // measure prediction error on them, and keep the best epoch's weights.
  // Off by default so every epoch count comparison stays budget-faithful.
  bool validation_selection = false;
  // Windows evaluated per validation pass.
  int validation_windows = 8;
  int epochs = 6;
  int batches_per_epoch = 10;
  int batch_size = 8;
  float learning_rate = 0.01f;  // Adam (Section 5.1.3).
  float grad_clip = 5.0f;
  uint64_t seed = 1;

  // ---- Evaluation ----
  // Stride between evaluated test windows (sub-samples the test period so
  // sweeps stay fast; 1 = every window).
  int eval_stride = 6;
  // Cap on evaluated windows (0 = no cap).
  int max_eval_windows = 48;
};

// The paper's model variants (Tables 4, 10, 11).
enum class StsmVariant {
  kFull,   // STSM: selective masking + contrastive learning.
  kNc,     // STSM-NC: no contrastive learning.
  kR,      // STSM-R: random masking, with contrastive learning.
  kRnc,    // STSM-RNC: random masking, no contrastive learning (base model).
  kTrans,  // STSM-trans: transformer temporal module + gated fusion.
  kRdA,    // STSM-rd-a: road distances for adjacency + pseudo-observations.
  kRdM,    // STSM-rd-m: road distances for adjacency matrices only.
};

// Applies a variant's switches on top of a base config.
StsmConfig ApplyVariant(StsmConfig config, StsmVariant variant);

// Human-readable variant name as printed in the paper's tables.
std::string VariantName(StsmVariant variant);

// Table 3 per-dataset hyper-parameters (lambda, epsilon_sg, K) for the
// registered dataset names; unknown names keep the defaults.
StsmConfig ConfigForDataset(const std::string& dataset_name);

}  // namespace stsm

#endif  // STSM_CORE_CONFIG_H_

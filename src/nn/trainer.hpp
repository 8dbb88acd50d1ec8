// Mini-batch trainer for Sequential models.
//
// Handles epoch loops, deterministic shuffling, batching (the paper uses a
// mini-batch size of 32), and per-epoch reporting. Works for any
// (model, loss, optimizer) triple; both the steering CNN and the
// autoencoder train through this.
#pragma once

#include <functional>
#include <vector>

#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/sequential.hpp"
#include "tensor/rng.hpp"

namespace salnov::nn {

struct TrainOptions {
  int64_t epochs = 10;
  int64_t batch_size = 32;     ///< Paper: 32.
  bool shuffle = true;
  bool verbose = false;        ///< Print per-epoch loss to stderr.
  /// Optional per-epoch callback: (epoch index, mean training loss).
  /// Return false to stop early.
  std::function<bool(int64_t, double)> on_epoch;
};

struct TrainHistory {
  std::vector<double> epoch_loss;  ///< Mean training loss per completed epoch.

  double final_loss() const { return epoch_loss.empty() ? 0.0 : epoch_loss.back(); }
};

class Trainer {
 public:
  /// `rng` drives shuffling only; pass a split() of your master Rng.
  Trainer(Sequential& model, Loss& loss, Optimizer& optimizer, Rng rng);

  /// Trains on inputs [N, ...] / targets [N, ...] (dimension 0 is the sample
  /// dimension for both). Returns per-epoch loss history.
  TrainHistory fit(const Tensor& inputs, const Tensor& targets, const TrainOptions& options);

 private:
  /// Gathers rows `index_batch` of `source` into a contiguous batch tensor.
  static Tensor gather(const Tensor& source, const std::vector<int64_t>& order, int64_t begin,
                       int64_t end);

  Sequential& model_;
  Loss& loss_;
  Optimizer& optimizer_;
  Rng rng_;
};

}  // namespace salnov::nn

#include "nn/trainer.hpp"

#include <algorithm>
#include <iostream>
#include <numeric>
#include <stdexcept>

namespace salnov::nn {

Trainer::Trainer(Sequential& model, Loss& loss, Optimizer& optimizer, Rng rng)
    : model_(model), loss_(loss), optimizer_(optimizer), rng_(rng) {}

Tensor Trainer::gather(const Tensor& source, const std::vector<int64_t>& order, int64_t begin,
                       int64_t end) {
  Shape batch_shape = source.shape();
  batch_shape[0] = end - begin;
  Tensor batch(batch_shape);
  for (int64_t i = begin; i < end; ++i) {
    batch.set_slice0(i - begin, source.slice0(order[static_cast<size_t>(i)]));
  }
  return batch;
}

TrainHistory Trainer::fit(const Tensor& inputs, const Tensor& targets, const TrainOptions& options) {
  if (inputs.rank() < 1 || targets.rank() < 1 || inputs.dim(0) != targets.dim(0)) {
    throw std::invalid_argument("Trainer::fit: inputs and targets must share dimension 0");
  }
  if (inputs.dim(0) == 0) throw std::invalid_argument("Trainer::fit: empty dataset");
  if (options.epochs < 1 || options.batch_size < 1) {
    throw std::invalid_argument("Trainer::fit: epochs and batch_size must be >= 1");
  }

  const int64_t n = inputs.dim(0);
  std::vector<int64_t> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), 0);

  TrainHistory history;
  const auto params = model_.parameters();
  for (int64_t epoch = 0; epoch < options.epochs; ++epoch) {
    if (options.shuffle) rng_.shuffle(order);
    double epoch_loss = 0.0;
    int64_t batches = 0;
    for (int64_t begin = 0; begin < n; begin += options.batch_size) {
      const int64_t end = std::min(begin + options.batch_size, n);
      const Tensor batch_x = gather(inputs, order, begin, end);
      const Tensor batch_y = gather(targets, order, begin, end);

      Optimizer::zero_grad(params);
      const Tensor prediction = model_.forward(batch_x, Mode::kTrain);
      epoch_loss += loss_.value(prediction, batch_y);
      model_.backward(loss_.gradient(prediction, batch_y));
      optimizer_.step(params);
      ++batches;
    }
    epoch_loss /= static_cast<double>(batches);
    history.epoch_loss.push_back(epoch_loss);
    if (options.verbose) {
      std::cerr << "epoch " << (epoch + 1) << "/" << options.epochs << "  loss " << epoch_loss << '\n';
    }
    if (options.on_epoch && !options.on_epoch(epoch, epoch_loss)) break;
  }
  return history;
}

}  // namespace salnov::nn

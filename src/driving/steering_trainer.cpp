#include "driving/steering_trainer.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "nn/loss.hpp"
#include "nn/optimizer.hpp"

namespace salnov::driving {

SteeringTrainResult train_steering_model(nn::Sequential& model,
                                         const roadsim::DrivingDataset& dataset,
                                         const SteeringTrainOptions& options, Rng& rng) {
  if (dataset.size() == 0) throw std::invalid_argument("train_steering_model: empty dataset");
  const Tensor inputs = dataset.images_nchw();
  Tensor targets = dataset.steering_tensor();
  if (options.randomize_labels) {
    Rng label_rng = rng.split();
    for (int64_t i = 0; i < targets.numel(); ++i) {
      targets[i] = static_cast<float>(label_rng.uniform(-1.0, 1.0));
    }
  }

  nn::MseLoss loss;
  nn::Adam optimizer(options.learning_rate);
  nn::Trainer trainer(model, loss, optimizer, rng.split());

  nn::TrainOptions train_options;
  train_options.epochs = options.epochs;
  train_options.batch_size = options.batch_size;
  train_options.verbose = options.verbose;

  SteeringTrainResult result;
  result.history = trainer.fit(inputs, targets, train_options);
  result.train_mse = result.history.final_loss();
  return result;
}

double steering_mae(nn::Sequential& model, const roadsim::DrivingDataset& dataset) {
  if (dataset.size() == 0) throw std::invalid_argument("steering_mae: empty dataset");
  double acc = 0.0;
  for (int64_t i = 0; i < dataset.size(); ++i) {
    acc += std::abs(predict_steering(model, dataset.image(i)) - dataset.steering(i));
  }
  return acc / static_cast<double>(dataset.size());
}

std::vector<double> steering_angles(const Tensor& output, int64_t frames) {
  if (output.numel() != frames) {
    throw std::logic_error("steering model output is not one scalar per frame (got " +
                           shape_to_string(output.shape()) + " for " + std::to_string(frames) +
                           ")");
  }
  return std::vector<double>(output.data(), output.data() + frames);
}

double predict_steering(nn::Sequential& model, const Image& image) {
  return steering_angles(model.forward(image.as_nchw(), nn::Mode::kInfer), 1)[0];
}

std::vector<double> predict_steering_batch(nn::Sequential& model,
                                           const std::vector<const Image*>& images) {
  if (images.empty()) return {};
  return steering_angles(model.forward(stack_nchw(images), nn::Mode::kInfer),
                         static_cast<int64_t>(images.size()));
}

double predict_steering_q8(const nn::QuantizedForward& model, const Image& image) {
  return steering_angles(model.forward(image.as_nchw()), 1)[0];
}

std::vector<double> predict_steering_q8_batch(const nn::QuantizedForward& model,
                                              const std::vector<const Image*>& images) {
  if (images.empty()) return {};
  return steering_angles(model.forward(stack_nchw(images)), static_cast<int64_t>(images.size()));
}

}  // namespace salnov::driving

#include "nn/dense.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <stdexcept>

#include "tensor/gemm.hpp"
#include "tensor/serialize.hpp"

namespace salnov::nn {

Dense::Dense(int64_t in_features, int64_t out_features, Rng& rng) {
  if (in_features <= 0 || out_features <= 0) {
    throw std::invalid_argument("Dense: feature counts must be positive");
  }
  // He-uniform: bound = sqrt(6 / fan_in); well-suited to the ReLU chains
  // used in both PilotNet and the autoencoder.
  const double bound = std::sqrt(6.0 / static_cast<double>(in_features));
  weight_ = Parameter("weight", rng.uniform_tensor({in_features, out_features}, -bound, bound));
  bias_ = Parameter("bias", Tensor::zeros({out_features}));
}

Dense::Dense(Tensor weight, Tensor bias) {
  if (weight.rank() != 2 || bias.rank() != 1 || bias.dim(0) != weight.dim(1)) {
    throw std::invalid_argument("Dense: weight must be [in, out] and bias [out]");
  }
  weight_ = Parameter("weight", std::move(weight));
  bias_ = Parameter("bias", std::move(bias));
}

Shape Dense::output_shape(const Shape& input) const {
  if (input.size() != 2 || input[1] != in_features()) {
    throw std::invalid_argument("Dense: expected input [batch, " + std::to_string(in_features()) +
                                "], got " + shape_to_string(input));
  }
  return {input[0], out_features()};
}

const PackedMatrix* Dense::packed_weights(int64_t batch) const {
  // Batch-1 inference takes the matvec path, which streams the row-major
  // weight directly; panels would go unused.
  if (batch <= 1 || active_gemm_kernel() != GemmKernel::kSimd) return nullptr;
  return &packed_weight_.get(weight_, [&](const Tensor& w) {
    return pack_b_panels(w.data(), in_features(), out_features());
  });
}

Tensor Dense::run_forward(const Tensor& input, Mode mode, bool fuse_relu) {
  output_shape(input.shape());  // validates
  const int64_t batch = input.dim(0);
  Tensor out({batch, out_features()});
  GemmEpilogue epilogue;
  epilogue.bias_col = bias_.value.data();
  epilogue.relu = fuse_relu;
  const PackedMatrix* packed = mode == Mode::kInfer ? packed_weights(batch) : nullptr;
  // Only the batch-1 matvec reads the flag.
  const bool finite =
      mode == Mode::kInfer && batch == 1 && finite_weight_.get(weight_, [](const Tensor& w) {
        return std::all_of(w.data(), w.data() + w.numel(), [](float v) { return std::isfinite(v); });
      });
  gemm_ex(input.data(), weight_.value.data(), out.data(), batch, out_features(), in_features(),
          epilogue, packed, finite);
  if (mode == Mode::kTrain) {
    cached_input_ = input;
    have_cache_ = true;
  }
  return out;
}

Tensor Dense::forward(const Tensor& input, Mode mode) { return run_forward(input, mode, false); }

Tensor Dense::backward(const Tensor& grad_output) {
  require_forward_cache(have_cache_, "Dense");
  const int64_t batch = cached_input_.dim(0);
  if (grad_output.shape() != Shape{batch, out_features()}) {
    throw std::invalid_argument("Dense::backward: grad shape " + shape_to_string(grad_output.shape()) +
                                " does not match output [batch, out]");
  }

  // dW += x^T g, fed transposed straight from the row-major cache (no
  // materialized x^T copy on the training hot loop).
  gemm_tn_accumulate(cached_input_.data(), grad_output.data(), weight_.grad.data(), in_features(),
                     out_features(), batch);

  // db += sum over batch of g.
  for (int64_t n = 0; n < batch; ++n) {
    const float* row = grad_output.data() + n * out_features();
    for (int64_t j = 0; j < out_features(); ++j) bias_.grad[j] += row[j];
  }

  // dx = g W^T, with W consumed row-major as the transposed operand.
  Tensor grad_input({batch, in_features()});
  gemm_nt_accumulate(grad_output.data(), weight_.value.data(), grad_input.data(), batch,
                     in_features(), out_features());
  return grad_input;
}

void Dense::save_config(std::ostream& os) const {
  write_i64(os, in_features());
  write_i64(os, out_features());
}

}  // namespace salnov::nn

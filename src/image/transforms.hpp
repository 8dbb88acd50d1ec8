// Image transforms used by the pipeline and the perturbation experiments.
//
// The paper evaluates robustness to two perturbation families (Fig. 3 and
// Fig. 7): additive Gaussian noise and brightness shifts, and cites Engstrom
// et al. for rotation/translation attacks, which we include as additional
// perturbations for the extension experiments.
#pragma once

#include "image/image.hpp"
#include "tensor/rng.hpp"

namespace salnov {

/// Bilinear resize to (out_height, out_width).
Image resize_bilinear(const Image& src, int64_t out_height, int64_t out_width);

/// Adds i.i.d. N(0, stddev^2) noise to every pixel and clamps to [0, 1].
/// `stddev` is in [0, 1] pixel units (e.g. 0.1 = 10% of full scale).
Image add_gaussian_noise(const Image& src, double stddev, Rng& rng);

/// Adds a constant `delta` to every pixel and clamps to [0, 1].
Image adjust_brightness(const Image& src, double delta);

/// Scales contrast about the image mean by `factor` and clamps to [0, 1].
Image adjust_contrast(const Image& src, double factor);

/// Rotates about the image center by `degrees` (bilinear sampling, edge
/// clamp). Positive angles rotate counter-clockwise.
Image rotate(const Image& src, double degrees);

/// Translates by (dy, dx) pixels with edge clamping.
Image translate(const Image& src, int64_t dy, int64_t dx);

/// Salt-and-pepper noise: each pixel independently becomes 0 or 1 with
/// probability `p / 2` each.
Image add_salt_pepper_noise(const Image& src, double p, Rng& rng);

/// Occludes a rectangle of the image with a constant `value` (models e.g. a
/// lens obstruction; used in extension experiments).
Image occlude(const Image& src, int64_t y0, int64_t x0, int64_t h, int64_t w, float value);

/// Finds the additive-noise stddev whose Gaussian-noised version of `src`
/// has (squared-error) MSE closest to `target_mse` (in 0-255 intensity
/// units, matching the paper's Fig. 3 numbers). Used to "engineer" a noise
/// level with the same MSE as a brightness shift.
double calibrate_noise_for_mse(const Image& src, double target_mse, Rng& rng, int iterations = 24);

/// Finds the brightness delta whose shifted version of `src` has MSE
/// closest to `target_mse` (0-255 intensity units).
double calibrate_brightness_for_mse(const Image& src, double target_mse, int iterations = 40);

}  // namespace salnov

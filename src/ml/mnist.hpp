// Synthetic MNIST-like dataset.
//
// Figure 1(a-b) of the paper measures the *overlap* of sparse gradient
// updates across TensorFlow workers training on MNIST. The overlap is
// driven by one property of the data: the distribution of per-pixel
// activation probabilities. Real MNIST has a hot centre (pixels inked
// in most digits), a medium ring, and a long tail of rarely inked
// border pixels; a worker's mini-batch touches a pixel's gradient
// column iff any sample in the batch activates that pixel.
//
// The generator reproduces that structure with three radial bands whose
// activation rates are calibrated (see EXPERIMENTS.md) so that measured
// overlap matches the paper's bands: ~42.5% for SGD (batch 3) and
// ~66.5% for Adam (batch 100) with 5 workers.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace daiet::ml {

inline constexpr std::size_t kImageSide = 28;
inline constexpr std::size_t kImagePixels = kImageSide * kImageSide;  // 784
inline constexpr std::size_t kNumClasses = 10;

struct MnistConfig {
    /// Radii of the hot / medium bands (pixels beyond are "rare").
    /// Defaults are calibrated so that measured 5-worker update overlap
    /// reproduces the paper's Figure 1: ~41% at batch 3 (paper ~42.5%,
    /// band 34-50%) and ~66.5% at batch 100 (paper ~66.5%, band 62-72%).
    double hot_radius{3.2};
    double medium_radius{8.7};
    /// Activation probabilities per band. Rare pixels draw a per-pixel
    /// rate log-uniformly from [rare_lo, rare_hi].
    double hot_rate{0.60};
    double medium_rate{0.05};
    double rare_lo{0.0006};
    double rare_hi{0.005};
    std::uint64_t seed{1234};
};

/// One sample: sparse pixel representation plus label.
struct Sample {
    std::vector<std::uint16_t> active_pixels;  ///< sorted indices
    std::vector<float> values;                 ///< intensity per active pixel
    std::uint8_t label{0};
};

class SyntheticMnist {
public:
    explicit SyntheticMnist(MnistConfig config);

    /// Generate one sample for class `label` using `rng`.
    Sample sample(std::uint8_t label, Rng& rng) const;

    /// Generate one sample with a uniformly random label.
    Sample sample(Rng& rng) const;

    /// Per-pixel activation probability for a given class. The bands
    /// are shared across classes; each class has a distinct intensity
    /// template so the classification task is learnable.
    double activation_rate(std::size_t pixel) const {
        return rates_[pixel];
    }

    const MnistConfig& config() const noexcept { return config_; }

private:
    MnistConfig config_;
    std::vector<double> rates_;                  ///< per-pixel activation prob
    std::vector<std::vector<float>> templates_;  ///< per-class mean intensity
};

}  // namespace daiet::ml

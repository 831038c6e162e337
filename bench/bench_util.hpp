// Helpers shared by the figure-reproduction harnesses.
#pragma once

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>

#include "common/table.hpp"

namespace daiet::bench {

/// A DAIET_SCALE value: a finite number > 0 with nothing trailing;
/// nullopt for anything else.
inline std::optional<double> parse_scale(const char* text) {
    if (text == nullptr) return std::nullopt;
    char* end = nullptr;
    errno = 0;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || errno == ERANGE || !std::isfinite(v) ||
        v <= 0.0) {
        return std::nullopt;
    }
    return v;
}

/// Experiment scale factor from the environment (DAIET_SCALE, default
/// 1.0): scales corpus sizes, graph scale, step counts, so the same
/// binaries can run laptop-quick or paper-sized. A malformed or
/// non-positive value exits with status 2 rather than silently running
/// at full scale.
inline double scale_factor() {
    const char* env = std::getenv("DAIET_SCALE");
    if (env == nullptr) return 1.0;
    if (const std::optional<double> v = parse_scale(env)) return *v;
    std::fprintf(stderr, "DAIET_SCALE=\"%s\" is not a positive number\n", env);
    std::exit(2);
}

/// `base` scaled by scale_factor(), never below 1: a count a bench
/// scales is a size it needs, so a tiny DAIET_SCALE shrinks it to one
/// instead of to nothing.
inline std::size_t scaled(std::size_t base) {
    return std::max<std::size_t>(
        1, static_cast<std::size_t>(static_cast<double>(base) * scale_factor()));
}

}  // namespace daiet::bench

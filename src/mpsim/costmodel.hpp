#pragma once

#include <cstdint>
#include <string>

/// \file costmodel.hpp
/// The alpha-beta-gamma cost model: the one place the repo turns work
/// into seconds. The virtual-time engine charges with it — a message of b
/// bytes sent at sender virtual time t becomes available to the receiver
/// at `t + alpha + beta * b`, and compute is charged either from measured
/// per-thread CPU time or from explicitly charged flops divided by
/// `flop_rate` (see TimingMode in engine.hpp). The closed-form
/// predictions use the same constants through predict(): a phase's
/// workload is summarized as PhaseTerms (core/flops.hpp builds them from
/// N, M, R, P) and costs
///
///   T = flops / flop_rate + messages * alpha + bytes * beta,
///
/// so a prediction from an engine's own model lands at ratio 1 when the
/// implementation does exactly the work the formulas count.

namespace ardbt::mpsim {

/// Workload summary for one phase: what the paper's formulas count.
struct PhaseTerms {
  double flops = 0.0;
  double messages = 0.0;
  double bytes = 0.0;
};

/// Machine parameters for the virtual clock and the predictions.
struct CostModel {
  /// Per-message latency in seconds (includes software overhead).
  double alpha = 5e-6;
  /// Per-byte transfer time in seconds (inverse bandwidth).
  double beta = 1e-9;
  /// Flop rate in flop/s used by TimingMode::ChargedFlops.
  double flop_rate = 2e9;

  /// Human-readable profile name for reports.
  std::string name = "commodity-cluster-2014";

  /// Modeled time for one message of `bytes` bytes.
  double message_time(std::uint64_t bytes) const {
    return alpha + beta * static_cast<double>(bytes);
  }

  /// Predicted seconds for a phase: flops/rate + messages*alpha + bytes*beta.
  double predict(const PhaseTerms& t) const {
    return t.flops / flop_rate + t.messages * alpha + t.bytes * beta;
  }

  /// This model with every predicted time multiplied by `s` (a uniform
  /// rescale of all three constants).
  CostModel scaled(double s) const {
    CostModel out = *this;
    out.flop_rate /= s;
    out.alpha *= s;
    out.beta *= s;
    return out;
  }

  /// The scale s for which scaled(s) reproduces `measured_s` for `terms`
  /// exactly (one-run calibration); 1 when the prediction or the
  /// measurement is not positive. With an engine's own model s lands at 1
  /// when the implementation performs exactly the predicted work.
  double fit_scale(const PhaseTerms& terms, double measured_s) const {
    const double predicted = predict(terms);
    if (predicted <= 0.0 || measured_s <= 0.0) return 1.0;
    return measured_s / predicted;
  }

  /// A profile resembling the interconnects of IPDPS-2014-era clusters
  /// (QDR InfiniBand-ish: ~2 us latency, ~3 GB/s effective bandwidth).
  static CostModel cluster2014() {
    return CostModel{.alpha = 2e-6, .beta = 1.0 / 3e9, .flop_rate = 5e9, .name = "qdr-ib-2014"};
  }
};

}  // namespace ardbt::mpsim

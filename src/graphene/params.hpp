// Parameter selection for both protocols (§3.3.1, §3.3.2).
//
// The optimizers minimize the *serialized* byte size of Bloom filter + IBLT
// using ceiling-accurate discrete size functions — the paper notes (§3.3.1)
// that the continuous closed form (Eq. 3) can land up to 20% above the true
// minimum for a < 100, so we sweep the small-a region exactly and use a
// geometric grid + local refinement beyond it. Protocol 2 adds the price of
// the repair round trip to its byte count unless
// ProtocolConfig::round_trip_bytes is 0 (the paper's objective).
#pragma once

#include <cstdint>

#include "iblt/iblt.hpp"

namespace graphene::obs {
class Registry;
}  // namespace graphene::obs

namespace graphene::iblt {
class ParamCache;
}  // namespace graphene::iblt

namespace graphene::core {

/// Which set-reconciliation construction reconcile::make_host_backend and
/// make_client_backend build. The choice is session-local: kGraphene speaks
/// the Offer/Request/Response/Fetch messages, kRatelessIblt the chunked
/// coded-symbol messages.
enum class ReconcileBackend : std::uint8_t {
  kGraphene,      ///< Bloom + IBLT offer/repair/fetch rounds (paper §3–4)
  kRatelessIblt,  ///< rateless coded-symbol stream (arXiv 2402.02668)
};

struct ProtocolConfig {
  /// β-assurance level for all Chernoff bounds (paper default 239/240).
  double beta = 239.0 / 240.0;
  /// Target IBLT decode-failure denominator (failure rate 1/fail_denom).
  std::uint32_t fail_denom = 240;
  /// Key the 8-byte IBLT short IDs with SipHash (§6.1 hardening). When
  /// false, short IDs are the first 8 bytes of the txid.
  bool keyed_short_ids = true;
  /// FPR pinned by the receiver in the m ≈ n fallback (§3.3.2, tested
  /// efficient for 0.001–0.2).
  double near_equal_fpr = 0.1;
  /// What one more round trip costs, in bytes: the link's bandwidth × RTT.
  /// On Protocol 2's normal path the receiver picks f_R to minimize
  /// |R| + |J| + P(repair) · round_trip_bytes, so a missing transaction
  /// rarely slips through R and forces the repair round. 0 selects the
  /// paper's objective, |R| + |J| alone. The default is 10 Mbit/s × 100 ms,
  /// which equals 1 Gbit/s × 1 ms.
  std::uint64_t round_trip_bytes = 125'000;
  /// Joint decoding of I and J when J alone leaves a 2-core (§4.2). Off only
  /// for the Fig. 16 ablation.
  bool enable_pingpong = true;
  /// Telemetry sink for counters, stage timings, and trace spans (see
  /// src/obs/). Null (the default) disables instrumentation at the cost of
  /// one branch per stage; not owned, must outlive the engines using it.
  obs::Registry* obs = nullptr;
  /// Shared memoization of param-table lookups; safe to share across
  /// concurrently-driven sessions. Null falls back to direct lookups; not
  /// owned, must outlive the engines using it.
  iblt::ParamCache* param_cache = nullptr;
  /// Set-reconciliation backend of a reconcile session. Both ends must
  /// agree (each backend rejects the other's message types).
  ReconcileBackend reconcile_backend = ReconcileBackend::kGraphene;
  /// Hard ceiling on message round trips in one reconcile session; the
  /// driver aborts (kFailed) beyond it so no backend can loop forever.
  std::uint32_t reconcile_round_cap = 64;
};

/// Chosen Protocol 1 parameters for relaying n block txns to a receiver
/// holding m mempool txns.
struct Protocol1Params {
  double fpr = 1.0;             ///< f_S = a/(m−n), or 1 when m = n
  std::uint64_t a = 0;          ///< expected Bloom false positives
  std::uint64_t a_star = 1;     ///< β-assurance bound (Theorem 1)
  iblt::IbltParams iblt{};      ///< table-optimal IBLT for a_star items
  std::size_t bloom_bytes = 0;  ///< predicted serialized filter size
  std::size_t iblt_bytes = 0;   ///< predicted serialized IBLT size
  [[nodiscard]] std::size_t total_bytes() const noexcept { return bloom_bytes + iblt_bytes; }
};

/// Chosen Protocol 2 parameters (receiver side, step 2).
struct Protocol2Params {
  double fpr = 1.0;             ///< f_R; b/(n−x*) under the byte objective
  std::uint64_t b = 1;          ///< false positives through R that J covers
  std::uint64_t x_star = 0;     ///< Theorem 2 lower bound on true positives
  std::uint64_t y_star = 1;     ///< Theorem 3 upper bound on S's false positives
  iblt::IbltParams iblt{};      ///< IBLT J sized for b + y_star
  std::size_t bloom_bytes = 0;
  std::size_t iblt_bytes = 0;
  bool reversed = false;        ///< m ≈ n fallback engaged (§3.3.2)
  [[nodiscard]] std::size_t total_bytes() const noexcept { return bloom_bytes + iblt_bytes; }
};

/// Minimizes |S| + |I| over the Bloom false-positive budget a (Protocol 1).
[[nodiscard]] Protocol1Params optimize_protocol1(std::uint64_t n, std::uint64_t m,
                                                 const ProtocolConfig& cfg = {});

/// Protocol 2 step 2. `z` is the receiver's candidate set size, `f_s` the
/// FPR of the Protocol 1 filter actually received. With
/// cfg.round_trip_bytes = 0 it minimizes |R| + |J| over b, the expected
/// false positives through R (f_R = b/(n−x*)). Otherwise it scans f_R down a
/// grid of eight steps per octave and minimizes |R| + |J| +
/// repair_probability(f_R, n−x*) · round_trip_bytes, with b the β-assured
/// bound on R's false positives (Theorem 1, at most n−x*). J is sized for
/// b + y* either way.
[[nodiscard]] Protocol2Params optimize_protocol2(std::uint64_t z, std::uint64_t m,
                                                 std::uint64_t n, double f_s,
                                                 const ProtocolConfig& cfg = {});

/// Chance that at least one of `missing` transactions passes a filter R of
/// FPR `fpr_r`, which the receiver then has to fetch in a repair round:
/// 1 − (1 − f_R)^missing.
[[nodiscard]] double repair_probability(double fpr_r, std::uint64_t missing) noexcept;

/// Continuous-approximation optimum a = n / (8 r τ ln² 2) (Eq. 3); exposed
/// for tests that check the discrete search brackets it.
[[nodiscard]] double eq3_continuous_a(std::uint64_t n, double tau) noexcept;

}  // namespace graphene::core

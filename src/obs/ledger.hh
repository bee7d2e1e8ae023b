/**
 * @file
 * LatencyLedger: per-miss latency attribution for demand L2 misses.
 *
 * Every demand L2 miss (the primary MSHR allocation, not merged
 * waiters) carries one MissRecord through the memory system. Each
 * layer stamps the interval it owned — L2 lookup, counter fetch, NoC
 * request flight, LLC slice access, NoC LLC-to-MC hop, MC queue, DRAM
 * service (row hit and row miss attributed separately), AES, and MAC
 * verify — and the crypto path additionally reports its busy interval
 * plus the tick up to which crypto work was hidden under the data
 * block's own flight. finish() folds the record into per-segment
 * histograms and running sums, from which the registry exposes
 * lat.l2miss.<segment> distributions, per-segment critical-path
 * shares, and the paper's headline lat.l2miss.overlap_frac (fraction
 * of crypto work hidden under data latency; the EMCC-vs-MC-crypto
 * delta is Fig 17's mechanism).
 *
 * Cost contract: like the Tracer, the ledger is attached to the
 * Simulator by pointer and every stamping site null-checks it, so the
 * disabled path is a single load per site. Records are pooled and
 * recycled; steady state performs no allocation.
 */

#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/histogram.hh"
#include "common/types.hh"

namespace emcc {
namespace obs {

class MetricsRegistry;

/** One attributable interval of an L2 miss's lifetime. */
enum class MissSegment : unsigned
{
    L2Lookup,    ///< tag lookup that discovered the miss (pre-miss)
    CtrFetch,    ///< counter fetch busy time (parallel lane)
    CtrWait,     ///< crypto/counter time *exposed* past data arrival
    NocReq,      ///< request flight L2 -> LLC slice
    Llc,         ///< LLC slice tag/data (hit: full access; miss: tag)
    NocLlcMc,    ///< request hop LLC slice -> memory controller
    McQueue,     ///< DRAM controller queueing delay
    DramRowHit,  ///< DRAM service, row-buffer hit
    DramRowMiss, ///< DRAM service, row miss or conflict
    Aes,         ///< AES pad/decrypt busy time (parallel lane)
    MacVerify,   ///< MAC recompute/compare (parallel lane)
    NocResp,     ///< response flight MC -> L2
    Other,       ///< residual: total minus the serial segments
    NumSegments,
};

constexpr unsigned kNumMissSegments =
    static_cast<unsigned>(MissSegment::NumSegments);

/** Stable lowercase name used in metric keys ("l2_lookup", ...). */
const char *missSegmentName(MissSegment s);

/**
 * The attribution record one miss carries. Stamping accumulates
 * durations (several DRAM retries may stamp McQueue repeatedly); the
 * crypto path instead records its interval once and the ledger derives
 * hidden vs. exposed time at finish().
 */
struct MissRecord
{
    Tick start{};                 ///< tick the L2 declared the miss
    Tick crypto_begin = kTickInvalid; ///< counter/AES lane start
    Tick crypto_end = kTickInvalid;   ///< verified-plaintext-ready tick
    /** Crypto work before this tick was hidden under the data block's
     *  own latency (data_done at MC for MC-side crypto; data arrival
     *  at L2 for L2-side crypto). */
    Tick hide_until = kTickInvalid;
    Count waiters = 0;            ///< L2 MSHR callbacks served by this fill

    /** Accumulate [b, e) into segment @p s; no-op when e <= b. */
    void
    stamp(MissSegment s, Tick b, Tick e)
    {
        if (e <= b)
            return;
        add(s, ticksToNs(e - b));
    }

    /**
     * Record the crypto lane [@p begin, @p end) and stamp its AES work
     * ending at @p aes_done: the pad from @p aes_start, then the last
     * @p aes_latency as the MAC verify.
     */
    void
    stampCrypto(Tick begin, Tick aes_start, Tick aes_done, Tick end,
                Tick aes_latency)
    {
        crypto_begin = begin;
        crypto_end = end;
        const Tick mac_b = std::max(aes_start, aes_done - aes_latency);
        stamp(MissSegment::Aes, aes_start, mac_b);
        stamp(MissSegment::MacVerify, mac_b, aes_done);
    }

    void
    add(MissSegment s, double ns)
    {
        const auto i = static_cast<unsigned>(s);
        seg_ns[i] += ns;
        stamped |= 1u << i;
    }

    double seg_ns[kNumMissSegments] = {};
    std::uint32_t stamped = 0;    ///< bitmask of touched segments
};

/**
 * Pool of MissRecords plus the per-segment aggregation. One per
 * simulated system; attach via Simulator::setLedger() before
 * construction so every layer picks it up.
 */
class LatencyLedger
{
  public:
    LatencyLedger();

    LatencyLedger(const LatencyLedger &) = delete;
    LatencyLedger &operator=(const LatencyLedger &) = delete;

    /** Start attribution for a miss declared at @p start. */
    MissRecord *begin(Tick start);

    /**
     * Fold a finished record into the aggregates and recycle it.
     * Computes the overlap credit (crypto work hidden under
     * hide_until), books exposed crypto time as CtrWait, and books the
     * residual of [start, fill) not covered by serial segments as
     * Other. @p rec is invalid afterwards.
     */
    void finish(MissRecord *rec, Tick fill);

    /** Drop all aggregates (measurement-phase reset). In-flight
     *  records keep their stamps and fold in at their own finish(). */
    void resetStats();

    Count records() const { return records_; }
    Count coalesced() const { return coalesced_; }
    const Histogram &totalHist() const { return total_hist_; }
    const Histogram &overlapHist() const { return overlap_hist_; }
    const Histogram &segmentHist(MissSegment s) const
    {
        return seg_hist_[static_cast<unsigned>(s)];
    }

    /** Mean ns spent in @p s per miss that touched it (0 if none). */
    double segmentMeanNs(MissSegment s) const;

    /** Fraction of total miss time attributed to @p s. */
    double share(MissSegment s) const;

    /** Hidden crypto ns / total crypto ns (0 when no crypto ran). */
    double overlapFrac() const;

    double hiddenNs() const { return hidden_sum_ns_; }
    double cryptoNs() const { return crypto_sum_ns_; }
    Count cryptoRecords() const { return crypto_records_; }

    /** Register lat.l2miss.* (or @p prefix.*) metrics. The ledger must
     *  outlive the registry user. */
    void registerMetrics(MetricsRegistry &reg,
                         const std::string &prefix = "lat.l2miss") const;

    /** Human-readable "where did the time go" breakdown table. */
    std::string renderTable() const;

  private:
    void release(MissRecord *rec);

    std::vector<std::unique_ptr<MissRecord>> pool_;
    std::vector<MissRecord *> free_;

    std::vector<Histogram> seg_hist_;
    Histogram total_hist_;
    Histogram overlap_hist_;
    std::array<double, kNumMissSegments> seg_sum_ns_ = {};
    double total_sum_ns_ = 0.0;
    double hidden_sum_ns_ = 0.0;
    double crypto_sum_ns_ = 0.0;
    Count records_ = 0;
    Count crypto_records_ = 0;
    Count coalesced_ = 0;
};

} // namespace obs
} // namespace emcc

/**
 * @file
 * DDR4 memory model: channels, ranks, banks, a row buffer with the
 * paper's 500 ns open-page timeout, FR-FCFS-Capped scheduling, read
 * priority with write draining, and refresh.
 *
 * The model is request-granular: each 64-byte access issues the DRAM
 * command sequence its bank state implies (row hit: CAS; closed row:
 * ACT+CAS; conflict: PRE+ACT+CAS), occupies the channel data bus for one
 * burst, and completes with a callback. Queueing delay — the Fig-22
 * metric — is the time from entering the read/write queue to the first
 * DRAM command being issued.
 *
 * Data layout: completion callbacks are pooled FinishCb handles
 * (sim/finish_pool.hh) instead of std::function, and pending requests
 * live in a generation-checked slab pool with intrusive uint32 FIFO
 * links per queue — enqueue/service/complete performs no heap
 * allocation in steady state (the deque-of-std::function layout this
 * replaces allocated on both the queue node and the closure).
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "common/histogram.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "obs/resmon.hh"
#include "obs/trace.hh"
#include "sim/checkpoint.hh"
#include "sim/finish_pool.hh"
#include "sim/simulator.hh"
#include "sim/slab_pool.hh"

namespace emcc {

namespace obs { class MetricsRegistry; struct MissRecord; }

/** Traffic classes, for the paper's bandwidth/queueing breakdowns. */
enum class MemClass : std::uint8_t
{
    Data = 0,       ///< normal program data
    Counter,        ///< counter blocks and integrity-tree nodes
    OverflowL0,     ///< level-0 (data page) re-encryption traffic
    OverflowHi,     ///< level-1-and-up re-encryption traffic
    NumClasses,
};

const char *memClassName(MemClass c);

/** One memory request as the DRAM controller sees it. */
struct DramRequest
{
    Addr addr{};
    bool is_write = false;
    MemClass mclass = MemClass::Data;
    /** Called at data-available time (reads) / write completion.
     *  A pooled one-shot handle; null (default) when the requester
     *  needs no completion (e.g. fire-and-forget writebacks). */
    FinishCb on_complete;
    /** Latency-ledger record to stamp with queueing and service time
     *  (demand data reads only; null when the ledger is disabled). Not
     *  owned; the record outlives the request by construction — it is
     *  finished only after this request's on_complete fires. */
    obs::MissRecord *attrib = nullptr;
};

static_assert(std::is_trivially_copyable_v<DramRequest>,
              "DramRequest moves through pooled queues by plain copy");

/** Table-I DDR4 timing and organization parameters. */
struct DramConfig
{
    unsigned channels = 1;
    unsigned ranks = 8;
    unsigned banks_per_rank = 16;
    std::uint64_t capacity_bytes = 128_GiB;
    std::uint64_t row_bytes = 8_KiB;

    double data_rate_gtps = 3.2;    ///< giga-transfers per second
    unsigned bus_bytes = 8;         ///< 64-bit data bus

    Tick t_cl = nsToTicks(13.75);
    Tick t_rcd = nsToTicks(13.75);
    Tick t_rp = nsToTicks(13.75);
    Tick t_rfc = nsToTicks(350.0);
    Tick t_refi = nsToTicks(7800.0);
    Tick row_timeout = nsToTicks(500.0);   ///< open-page close timeout

    unsigned queue_entries = 256;   ///< read queue and write queue, each
    unsigned frfcfs_cap = 4;        ///< max consecutive row hits per bank
    unsigned write_drain_hi = 192;  ///< start draining writes above this
    unsigned write_drain_lo = 64;   ///< stop draining below this

    /** Use the paper's 8-channel mapping (addr bits 8..10) when
     *  channels == 8; otherwise XOR-fold mapping. */
    bool paper_channel_bits = true;

    /** Time to transfer one 64-byte burst. */
    Tick
    burstTicks() const
    {
        const double beats = static_cast<double>(kBlockBytes) / bus_bytes;
        return nsToTicks(beats / data_rate_gtps);
    }

    /** Peak bandwidth in bytes/second for all channels. */
    double
    peakBytesPerSec() const
    {
        return data_rate_gtps * 1e9 * bus_bytes * channels;
    }
};

/** Address decomposition for one request. */
struct DramCoord
{
    unsigned channel;
    unsigned rank;
    unsigned bank;
    std::uint64_t row;
};

/**
 * Address mapper: XOR-based (Skylake-like, per Table I) bank hashing;
 * channel selection from bits 8..10 in the paper's 8-channel mode.
 */
class DramAddressMapper
{
  public:
    explicit DramAddressMapper(const DramConfig &cfg) : cfg_(cfg) {}

    DramCoord map(Addr addr) const;

  private:
    DramConfig cfg_;
};

/** Per-controller statistics. */
struct DramStats
{
    Count reads[static_cast<int>(MemClass::NumClasses)] = {};
    Count writes[static_cast<int>(MemClass::NumClasses)] = {};
    /// queueing delay sums (ticks), split read/write x class
    double read_qdelay[static_cast<int>(MemClass::NumClasses)] = {};
    double write_qdelay[static_cast<int>(MemClass::NumClasses)] = {};
    /// log-sums for geometric-mean queueing delay (Fig 22); delays are
    /// clamped below at 1 ns so empty-queue accesses stay meaningful
    double read_qdelay_log[static_cast<int>(MemClass::NumClasses)] = {};
    double write_qdelay_log[static_cast<int>(MemClass::NumClasses)] = {};
    Count row_hits = 0;
    Count row_misses = 0;      ///< closed row
    Count row_conflicts = 0;   ///< wrong row open
    Tick bus_busy{};         ///< total data-bus occupancy
    Count refreshes = 0;
    Count retries = 0;         ///< enqueue rejections (queue full)
    /// read queueing-delay distribution (ns), all classes combined
    Histogram read_qdelay_hist{0.0, 2000.0, 50};

    Count readsAll() const;
    Count writesAll() const;
};

/**
 * One DRAM channel: its own queues, banks and data bus.
 */
class DramChannel : public Component
{
  public:
    DramChannel(Simulator &sim, std::string name, const DramConfig &cfg,
                unsigned channel_id);

    /**
     * Try to enqueue; returns false when the relevant queue is full.
     * A rejected request is left intact at the caller (including its
     * on_complete handle), so it can be retried as-is. Requests are
     * plain trivially-copyable values; the rvalue overload exists for
     * source compatibility with the old move-only closure layout.
     */
    bool enqueue(const DramRequest &req);
    bool enqueue(DramRequest &&req) { return enqueue(req); }

    std::size_t readQueueDepth() const { return read_q_.size; }
    std::size_t writeQueueDepth() const { return write_q_.size; }

    /** Pending-record pool high-water mark (steady-state reuse tests:
     *  this must stop growing once the queues reach their regime). */
    std::size_t pendingPoolSlots() const { return pend_pool_.slots(); }

    const DramStats &stats() const { return stats_; }
    DramStats &stats() { return stats_; }

    /** Zero the statistics (bank/queue state untouched). */
    void resetStats() { stats_ = DramStats{}; }

    /** Register per-channel counters/queues under "<prefix>.". */
    void registerMetrics(obs::MetricsRegistry &reg,
                         const std::string &prefix) const;

    /**
     * One access in functional fast-forward: count it in the same
     * per-class reads[]/writes[] a timed access bumps, and open its row
     * with no timing, queueing or other stats. Keeps row-buffer
     * locality warm so the first accesses of a detailed measurement
     * window see realistic hit/conflict mixes.
     */
    void
    functionalTouch(Addr addr, Tick now, MemClass cls, bool is_write)
    {
        functionalCount(cls, is_write, 1);
        const DramCoord c = mapper_.map(addr);
        BankState &bk = bank(c);
        bk.row_open = true;
        bk.open_row = c.row;
        bk.last_use = now;
        bk.consecutive_hits = 0;
    }

    /** Count @p n functional accesses of class @p cls without touching
     *  any row. */
    void
    functionalCount(MemClass cls, bool is_write, Count n)
    {
        (is_write ? stats_.writes : stats_.reads)[static_cast<int>(cls)] +=
            n;
    }

    /** Serialize bank/bus state (sampled-simulation checkpoints). Only
     *  valid at a quiesced boundary: panics if requests are queued. */
    void
    saveState(CheckpointWriter &w) const
    {
        w.tag(0xd3a40001u);
        panic_if(read_q_.size != 0 || write_q_.size != 0,
                 "dram checkpoint with %zu queued requests",
                 read_q_.size + write_q_.size);
        w.u64(banks_.size());
        for (const BankState &bk : banks_) {
            w.boolean(bk.row_open);
            w.u64(bk.open_row);
            w.pod(bk.ready_at);
            w.pod(bk.last_use);
            w.u32(bk.consecutive_hits);
        }
        w.vec(rank_refresh_seen_);
        w.pod(bus_free_at_);
        w.boolean(draining_writes_);
        // stats_ is excluded: the histogram member is not a plain
        // value, and window stats are reset at every sampling boundary
        // anyway (resetStats), so nothing downstream depends on it.
    }

    void
    restoreState(CheckpointReader &r)
    {
        r.expectTag(0xd3a40001u);
        const std::uint64_t n = r.u64();
        panic_if(n != banks_.size(), "dram checkpoint bank-count mismatch");
        for (BankState &bk : banks_) {
            bk.row_open = r.boolean();
            bk.open_row = r.u64();
            bk.ready_at = r.pod<Tick>();
            bk.last_use = r.pod<Tick>();
            bk.consecutive_hits = r.u32();
        }
        r.vec(rank_refresh_seen_);
        bus_free_at_ = r.pod<Tick>();
        draining_writes_ = r.boolean();
    }

  private:
    static constexpr std::uint32_t kNil = SlabPool<int>::kNilSlot;

    struct Pending
    {
        DramRequest req;
        DramCoord coord{};
        Tick enqueue_tick{};
        std::uint32_t prev = kNil;   ///< toward the queue head (older)
        std::uint32_t next = kNil;   ///< toward the queue tail (newer)
    };

    /** Intrusive FIFO over pend_pool_ slots: head = oldest. */
    struct PendQueue
    {
        std::uint32_t head = kNil;
        std::uint32_t tail = kNil;
        std::size_t size = 0;
    };

    struct BankState
    {
        bool row_open = false;
        std::uint64_t open_row = 0;
        Tick ready_at{};          ///< earliest next command
        Tick last_use{};
        unsigned consecutive_hits = 0;
    };

    BankState &bank(const DramCoord &c);
    void pushBack(PendQueue &q, std::uint32_t slot);
    void unlink(PendQueue &q, std::uint32_t slot);
    void scheduleServiceCheck();
    void serviceLoop();
    /** Pick the next request slot from @p q under FR-FCFS-Capped, or
     *  kNil if the queue is empty. */
    std::uint32_t pickNext(const PendQueue &q);
    /** Issue one request; returns the data-finished tick. */
    Tick issue(Pending &p);
    /**
     * Lazily apply refresh: staggered per-rank tRFC windows every
     * tREFI. Adjusts @p cmd_start past any in-progress window, closes
     * the row if a refresh elapsed since the bank's last use, and
     * accounts elapsed windows. Lazy evaluation (instead of a periodic
     * event) keeps the event queue empty when the channel is idle.
     */
    void applyRefresh(BankState &bk, const DramCoord &coord,
                      Tick &cmd_start);

    DramConfig cfg_;
    DramAddressMapper mapper_;
    unsigned channel_id_;
    SlabPool<Pending> pend_pool_;
    PendQueue read_q_;
    PendQueue write_q_;
    bool draining_writes_ = false;
    Tick bus_free_at_{};
    std::vector<BankState> banks_;
    /// per-rank count of refresh windows already accounted in stats
    std::vector<Count> rank_refresh_seen_;
    bool service_scheduled_ = false;
    DramStats stats_;
    /// non-null only when tracing with the dram category enabled
    obs::Tracer *tracer_ = nullptr;
    obs::TrackId trace_track_ = 0;
    /// non-null only when a resource monitor is attached to the sim
    obs::ResourceMonitor *resmon_ = nullptr;
    obs::ResId res_bus_ = 0;    ///< channel data bus (capacity 1)
    obs::ResId res_banks_ = 0;  ///< bank pool (capacity ranks x banks)
    obs::ResId res_queue_ = 0;  ///< shared "mc_queue" read-slot pool
};

/**
 * The memory device: routes requests to channels by the address mapper.
 */
class DramMemory : public Component
{
  public:
    DramMemory(Simulator &sim, std::string name, const DramConfig &cfg);

    const DramConfig &config() const { return cfg_; }

    /** See DramChannel::enqueue for the retry contract. */
    bool enqueue(const DramRequest &req);
    bool enqueue(DramRequest &&req) { return enqueue(req); }

    /** Aggregated statistics across channels. */
    DramStats aggregateStats() const;

    /** Zero statistics on every channel. */
    void
    resetStats()
    {
        for (auto &ch : channels_)
            ch->resetStats();
    }

    const DramChannel &channel(unsigned i) const { return *channels_.at(i); }
    DramChannel &channel(unsigned i) { return *channels_.at(i); }

    /** Total read+write queue occupancy across all channels (watchdog
     *  diagnostics and end-of-run leak checks). */
    std::size_t
    queuedRequests() const
    {
        std::size_t n = 0;
        for (const auto &ch : channels_)
            n += ch->readQueueDepth() + ch->writeQueueDepth();
        return n;
    }
    unsigned numChannels() const
    {
        return static_cast<unsigned>(channels_.size());
    }

    /** Register every channel under "<prefix>.chN." plus device-level
     *  occupancy gauges. */
    void registerMetrics(obs::MetricsRegistry &reg,
                         const std::string &prefix) const;

    /** Route a functional fast-forward access to its channel. */
    void
    functionalTouch(Addr addr, Tick now, MemClass cls, bool is_write)
    {
        const DramCoord c = mapper_.map(addr);
        channels_.at(c.channel)->functionalTouch(addr, now, cls, is_write);
    }

    /** Count @p n functional accesses on @p addr's channel without
     *  touching any row. */
    void
    functionalCount(Addr addr, MemClass cls, bool is_write, Count n)
    {
        const DramCoord c = mapper_.map(addr);
        channels_.at(c.channel)->functionalCount(cls, is_write, n);
    }

    /** Serialize every channel's bank/bus state, in channel order. */
    void
    saveState(CheckpointWriter &w) const
    {
        w.tag(0xd3a40002u);
        w.u64(channels_.size());
        for (const auto &ch : channels_)
            ch->saveState(w);
    }

    void
    restoreState(CheckpointReader &r)
    {
        r.expectTag(0xd3a40002u);
        const std::uint64_t n = r.u64();
        panic_if(n != channels_.size(),
                 "dram checkpoint channel-count mismatch");
        for (auto &ch : channels_)
            ch->restoreState(r);
    }

  private:
    DramConfig cfg_;
    DramAddressMapper mapper_;
    std::vector<std::unique_ptr<DramChannel>> channels_;
};

} // namespace emcc

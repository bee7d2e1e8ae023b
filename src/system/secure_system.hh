/**
 * @file
 * The full-system timing model: 4 OoO-approximated cores, L1/L2 private
 * caches, a shared non-inclusive (victim) LLC, a DDR4 memory controller
 * with secure-memory metadata machinery, and the four schemes —
 * non-secure, MC-only counter cache, LLC-baseline (prior work), and
 * EMCC (this paper).
 *
 * Methodology mirrors the paper's modified gem5 classic model: cache
 * latencies are additive (Table I), a non-uniform NoC component sampled
 * from the Fig-3 mesh distribution is added to L3 hit and L3-miss
 * response latencies, DRAM is the event-driven DDR4 model, and AES
 * bandwidth is a pool of units at the MC — half of which EMCC moves to
 * the L2s.
 */

#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "cache/cache.hh"
#include "cache/mshr.hh"
#include "common/flat_map.hh"
#include "common/stats.hh"
#include "core/core_model.hh"
#include "crypto/aes_pool.hh"
#include "dram/dram.hh"
#include "fault/fault_injector.hh"
#include "noc/latency_model.hh"
#include "noc/mesh.hh"
#include "obs/critpath.hh"
#include "obs/ledger.hh"
#include "obs/metrics.hh"
#include "obs/resmon.hh"
#include "obs/series.hh"
#include "obs/trace.hh"
#include "secmem/counter_design.hh"
#include "secmem/metadata_map.hh"
#include "sim/checkpoint.hh"
#include "sim/finish_pool.hh"
#include "sim/slab_pool.hh"
#include "sim/watchdog.hh"
#include "system/config.hh"
#include "system/page_mapper.hh"
#include "workloads/workload.hh"

namespace emcc {

/** System-level counters the figures consume. */
struct SystemStats
{
    // core-visible
    Count data_reads = 0;
    Count data_writes = 0;
    Count l1_hits = 0;            ///< loads that hit in L1 (store hits
                                  ///  are not counted)
    Count l2_data_hits = 0;
    Count l2_data_misses = 0;
    Count llc_data_hits = 0;
    Count llc_data_misses = 0;    ///< normal memory reads reaching the MC

    // L2 miss latency (Fig 17): L2-miss request to data usable at L2
    double l2_miss_latency_sum_ns = 0.0;
    Count l2_miss_latency_count = 0;

    // counter location breakdown for reads (Figs 6/7 shape)
    Count mc_ctr_hits = 0;
    Count llc_ctr_hits = 0;
    Count llc_ctr_misses = 0;

    // EMCC-specific (Figs 11/12/19/23)
    Count emcc_l2_ctr_hits = 0;
    Count emcc_l2_ctr_misses = 0;
    Count emcc_ctr_accesses_to_llc = 0;
    Count baseline_ctr_accesses_to_llc = 0;
    Count useless_ctr_accesses = 0;
    Count l2_ctr_inserts = 0;
    Count l2_ctr_invalidations = 0;
    Count decrypted_at_l2 = 0;
    Count decrypted_at_mc = 0;
    Count adaptive_offloads = 0;

    Count overflows = 0;

    // §IV-F extensions
    Count llc_unverified_hits = 0;   ///< inclusive mode: hits on
                                     ///  encrypted&unverified LLC lines
    Count inclusive_back_invalidations = 0;
    Count dynamic_off_windows = 0;   ///< windows with EMCC toggled off
    Count dynamic_windows = 0;       ///< total sampling windows

    // fault-injection resilience (src/fault)
    Count integrity_detected = 0;    ///< failing MAC verifications
    Count integrity_retried = 0;     ///< recovery attempts issued
    Count integrity_recovered = 0;   ///< fills recovered within budget
    Count integrity_fatal = 0;       ///< escalations past the budget
};

/**
 * End-of-run leak check: once the cores stop and the event queue is
 * drained, nothing should remain in flight. Anything left is a lost
 * callback or a stuck component.
 */
struct LeakReport
{
    Count drained_events = 0;        ///< straggler events executed
    Count undrained_events = 0;      ///< still live after the drain cap
    Count stuck_mshr_entries = 0;    ///< outstanding misses (lost fills)
    Count queued_dram_requests = 0;  ///< requests parked in DRAM queues

    bool
    clean() const
    {
        return undrained_events == 0 && stuck_mshr_entries == 0 &&
               queued_dram_requests == 0;
    }

    /** One-line summary of what leaked (or "clean"). */
    std::string render() const;
};

/**
 * SMARTS-style sampled-simulation parameters: alternate functional
 * fast-forward with short detailed windows. Each of the @p windows
 * iterations fast-forwards @p ffwd_refs memory references per core
 * architecturally (caches, counters, tree and DRAM row state updated;
 * no event-level timing), runs @p warm detailed instructions per core
 * to re-warm the timing state, then measures @p measure instructions
 * with freshly reset stats. Per-window estimates aggregate into
 * sample.* metrics with normal-approximation confidence intervals.
 */
struct SampleSpec
{
    Count ffwd_refs = 0;    ///< functional refs/core before each window
    /** Functional refs/core before the *first* window only (0 = use
     *  ffwd_refs). Large footprints need one long initial warm to bring
     *  the LLC and counter metadata to steady state; the inter-window
     *  fast-forwards then only have to keep that state fresh, which is
     *  what makes sampling profitable on 10x-scale runs. */
    Count ffwd_first = 0;
    unsigned windows = 0;   ///< number of detailed measurement windows
    Count warm = 0;         ///< detailed warm-up instructions per core
    Count measure = 0;      ///< measured instructions per core
    /** Exercise save->scramble->restore at every window boundary; the
     *  stats JSON must stay byte-identical to a run without it. */
    bool checkpoint_roundtrip = false;

    bool enabled() const { return windows > 0; }
};

/** Per-window scalar estimates a sampled run aggregates. */
struct SampleWindow
{
    double ipc = 0.0;           ///< sum of per-core IPC
    double l2_miss_ns = 0.0;    ///< mean L2-miss latency
    double ctr_hit_rate = 0.0;  ///< counter hits / counter lookups
    double duration_ns = 0.0;   ///< simulated measured time
};

/** Aggregated results of a measured window. */
struct RunResults
{
    double total_ipc = 0.0;          ///< sum of per-core IPC
    double duration_ns = 0.0;        ///< measured wall (simulated) time
    SystemStats sys;
    DramStats dram;
    FaultReport faults;              ///< fault-campaign outcome (if any)
    LeakReport leaks;                ///< post-run leak check
    Count instructions = 0;
    /** End-of-run dump of the full metrics registry (--stats-json). */
    obs::MetricsSnapshot metrics;
    /** Host wall-clock seconds for the run; profiling only — never part
     *  of the deterministic stats JSON. */
    double host_seconds = 0.0;
    /** True when the run was cancelled early through the Simulator's
     *  cooperative stop flag (deadline or SIGINT): every counter above
     *  covers only the portion that actually executed. */
    bool partial = false;

    /** Flatten everything into a named StatSet (for CSV/JSON export
     *  and tooling). */
    StatSet toStatSet() const;
};

/**
 * The system. Construct with a config and a workload, call run(), read
 * results().
 */
class SecureSystem : public Component, public MemorySystemPort
{
  public:
    SecureSystem(Simulator &sim, const SystemConfig &cfg,
                 const WorkloadSet *workload);

    /** Warm caches/counters for @p warmup committed instructions per
     *  core, reset stats, then measure for @p measure instructions. */
    void run(Count warmup, Count measure);

    /**
     * Functionally fast-forward @p refs_per_core memory references per
     * core, round-robin across cores: the full architectural path
     * (L1/L2/LLC lookups, EMCC counter placement, counter values,
     * integrity-tree and MC-cache state, DRAM row state and per-class
     * DRAM traffic counts) advances by direct calls with no events,
     * NoC hops or AES timing. Trace cursors move so a later detailed
     * phase resumes where the fast-forward left off. Must not race a
     * running detailed phase.
     */
    void fastForward(Count refs_per_core);

    /** Run SMARTS-style sampled simulation per @p spec; results() then
     *  carries the final window's registry snapshot plus aggregated
     *  sample.* metrics. */
    void runSampled(const SampleSpec &spec);

    /** One detailed phase of @p instr committed instructions per core,
     *  drained to a quiesced boundary — no stats reset, no registry
     *  snapshot. This is the sampling driver's building block, public
     *  so the allocation-contract tests can measure the steady-state
     *  miss path without the (allocating) end-of-run bookkeeping. */
    void runPhaseQuiesced(Count instr)
    {
        runPhase(instr);
        drainQuiesce();
    }

    /** Slab capacities of the pooled per-LLC-miss join/walk state
     *  (tests assert these stop growing once warm). */
    std::size_t joinPoolSlots() const { return join_pool_.slots(); }
    std::size_t walkPoolSlots() const { return walk_pool_.slots(); }

    /**
     * Serialize all architectural + persistent timing state. Only legal
     * at a quiesced phase boundary (no events, MSHRs, in-flight counter
     * fetches or queued DRAM requests); save methods panic otherwise.
     */
    Checkpoint saveCheckpoint() const;

    /** Restore a saveCheckpoint() image taken at the same topology. */
    void restoreCheckpoint(const Checkpoint &ck);

    const RunResults &results() const { return results_; }
    const SystemStats &stats() const { return stats_; }
    const SystemConfig &config() const { return cfg_; }
    /** The memory device (per-channel state and live statistics). */
    const DramMemory &dram() const { return dram_; }

    /** The fault injector, if a campaign is configured (else null). */
    const FaultInjector *faultInjector() const { return fault_.get(); }
    /** The forward-progress watchdog, if enabled (else null). */
    const Watchdog *watchdog() const { return watchdog_.get(); }

    /** AES pool at L2 @p i (for tests / ablations). */
    const AesPool &l2AesPool(unsigned i) const { return *l2_aes_.at(i); }
    const AesPool &mcAesPool() const { return mc_aes_; }

    /** The hierarchical metrics registry every component registered
     *  into at construction ("l2.0.ctr_hits", "dram.ch0.row_conflicts",
     *  "noc.hops", ...). */
    const obs::MetricsRegistry &metrics() const { return metrics_; }

    /** The per-miss latency ledger attached via Simulator::setLedger
     *  before construction (null when attribution is off). */
    const obs::LatencyLedger *ledger() const { return ledger_; }

    /** The resource-contention monitor attached via
     *  Simulator::setResMon before construction (null when off). */
    const obs::ResourceMonitor *resmon() const { return resmon_; }

    /** The critical-path analyzer attached via Simulator::setCritPath
     *  before construction (null when off). */
    const obs::CritPathAnalyzer *critpath() const { return critpath_; }

    /** Attach an interval stats-series sink (not owned; may be set any
     *  time before run()). Samples are taken every series->interval()
     *  ticks of the measurement phase. */
    void attachSeries(obs::StatsSeries *series) { series_ = series; }

    // ---- MemorySystemPort
    FinishPool &finishPool() override { return finish_pool_; }
    void read(unsigned core, Addr vaddr, FinishCb done) override;
    void write(unsigned core, Addr vaddr, FinishCb done) override;

  private:
    // Memory-path continuations are pooled one-shot handles
    // (sim/finish_pool.hh), built with fin() below. The cores make
    // theirs in the same pool via finishPool(), so a completion is a
    // 16-byte handle end to end — core dispatch through MSHR, L2,
    // LLC, MC and DRAM — with no heap allocation anywhere.

    /** Move a closure into the continuation pool. */
    template <typename F>
    FinishCb
    fin(F &&f)
    {
        return finish_pool_.make(std::forward<F>(f));
    }

    /** Per-L2-miss counter-path outcome: where this miss's data is
     *  decrypted. Default-constructed (no counters in the L2), it
     *  leaves decryption to the MC, if the scheme is secure at all. */
    struct CtrPath
    {
        bool mc_decrypts = false;   ///< EMCC hands the miss to the MC
                                    ///  (ctr missed LLC, dynamic off
                                    ///  or adaptive offload)
        Tick ctr_ready_at_l2 = kTickInvalid; ///< post-decode, if at L2
        Tick ctr_start = kTickInvalid; ///< tick the L2 counter lookup
                                       ///  began (ledger crypto lane)

        /** The L2 decrypts: its counter is (or will be) in the L2. */
        bool
        atL2() const
        {
            return !mc_decrypts && ctr_ready_at_l2 != kTickInvalid;
        }
    };

    Addr translate(unsigned core, Addr vaddr);
    /** Sampled non-uniform NoC delta in ticks (can be negative ns;
     *  clamped so latencies stay positive). */
    std::int64_t nocDeltaTicks();
    static Tick addDelta(Tick base, std::int64_t delta);

    void handleL1Miss(unsigned core, Addr pa, bool is_store, Tick t1);
    void l2Access(unsigned core, Addr pa, bool is_store, Tick t,
                  FinishCb fill_cb);
    CtrPath emccCounterPath(unsigned core, Addr pa, Tick t_miss,
                            obs::MissRecord *rec);
    void llcDataAccess(unsigned core, Addr pa, Tick t_miss,
                       const CtrPath &ctr, obs::MissRecord *rec,
                       FinishCb fill_cb);
    void mcDataRead(unsigned core, Addr pa, Tick t_mc, const CtrPath &ctr,
                    Tick t_miss, obs::MissRecord *rec,
                    FinishCb fill_at_l2_cb);
    /** Fetch+verify a counter at the MC; cb gets the verified tick. */
    void mcFetchCounter(Addr pa, Tick t, bool count_buckets, FinishCb cb);
    void mcHandleWriteback(Addr pa, Tick t);
    void scheduleOverflowJob(Addr region_base, Count blocks, Tick t);
    void pumpOverflowJobs(Tick t);
    /** Enqueue a DRAM request, retrying while the queue is full.
     *  @p attrib, when non-null, is stamped with the request's MC queue
     *  and DRAM service intervals (latency ledger). */
    void dramRequest(Addr addr, MemClass cls, bool is_write, Tick t,
                     FinishCb done, obs::MissRecord *attrib = nullptr);
    void tryEnqueueDram(Addr addr, MemClass cls, bool is_write,
                        FinishCb done, obs::MissRecord *attrib = nullptr);

    // ---- fault-injection resilience
    /** Extra AES start latency from an injected stall (0 when off). */
    Tick aesStall();
    /** Integrity-tree interior nodes covering @p pa's counter, bottom-
     *  up. Empty unless a tree fault campaign is live (the common case
     *  stays allocation-free). */
    std::vector<Addr> treeNodesFor(Addr pa) const;
    /** Run the modeled MAC check on a decrypted fill; on failure enter
     *  the recovery protocol, else complete normally at @p fill. */
    void finishWithVerify(unsigned core, Addr pa, Tick fill, FinishCb cb);
    /** One bounded recovery attempt: invalidate poisoned metadata,
     *  re-fetch counter+data from DRAM bypassing all caches, re-decrypt
     *  and re-verify; escalate past cfg_.max_verify_retries. */
    void recoverFill(unsigned core, Addr pa, Tick t,
                     FaultInjector::Detection det, unsigned attempt,
                     FinishCb cb);
    /** Drain straggler events and populate results_.leaks. */
    void drainAndCheckLeaks();

    // ---- fills: one layer for both clocks. In detailed mode each fill
    // lands as an event at its tick; in functional mode (fastForward)
    // it applies at once and its DRAM traffic only touches row state
    // and the per-class DRAM counts.

    /** Run @p body at tick @p t: posted as a cache event in detailed
     *  mode, called inline in functional mode. */
    template <typename F>
    void
    at(Tick t, F &&body)
    {
        if (functional_) {
            body();
            return;
        }
        sim().post(std::max(t, curTick()), std::forward<F>(body),
                   /*priority=*/0, EventTag::Cache);
    }

    void insertL1(unsigned core, Addr pa, bool dirty);
    void insertL2Data(unsigned core, Addr pa, bool dirty, Tick t);
    void insertL2Counter(unsigned core, Addr ctr_addr, Tick t);
    void noteL2CounterGone(unsigned core, Addr ctr_addr, bool invalidated);
    void handleL2Victim(unsigned core, const Victim &v);
    void insertLlc(Addr pa, LineClass cls, bool dirty, Tick t,
                   bool unverified = false);
    void insertMcCache(Addr addr, LineClass cls, bool dirty, Tick t);
    /** Drop the copies of counter block @p ctr cached above the MC
     *  (the L2s and the LLC): a writeback bumped it, or a recovery
     *  re-fetches it. */
    void invalidateStaleCounter(Addr ctr);

    // ---- pooled per-LLC-miss join/walk state (slab-recycled; the
    // closures on the hot path capture only [this, slot])

    /** Join between the DRAM data fetch and the crypto path of one
     *  MC data read. Released after the fill callback fires. */
    struct JoinState
    {
        Tick data_done = kTickInvalid;
        Tick crypto_done = kTickInvalid;
        bool crypto_needed = true;
        bool crypto_at_l2 = false;
        FinishCb cb;
        unsigned core = 0;
        Addr pa{};
        std::int64_t resp_delta = 0;
        obs::MissRecord *rec = nullptr;
    };

    /** Fan-in of one MC counter fetch's tree-walk block arrivals.
     *  Released when the last outstanding block arrives. */
    struct WalkState
    {
        unsigned outstanding = 0;
        Tick max_arrival{};
        unsigned fetched_levels = 0;
        Addr ctr{};
        Tick t2{};
    };

    std::uint32_t allocJoin(FinishCb cb, unsigned core, Addr pa,
                            std::int64_t resp_delta,
                            obs::MissRecord *rec);
    /** Complete the join if both paths arrived; releases the slot. */
    void joinTryFinish(std::uint32_t slot);
    /** One tree-walk block arrived; fires verification + releases the
     *  slot when it was the last. */
    void walkArrive(std::uint32_t slot, Tick when);

    // ---- functional fast-forward: per-reference decisions without
    // timing; every fill goes through the shared fill layer above
    void ffwdHandleRef(unsigned core, Addr pa, bool is_write);
    void ffwdMcCounterAccess(Addr pa, bool count_buckets,
                             bool llc_known_miss = false);
    void ffwdMcWriteback(Addr pa);

    // ---- sampled-simulation machinery
    /** Start every core for @p budget instructions and step events
     *  until all finish (or a cooperative stop). */
    void runPhase(Count budget);
    /** Step the event queue until empty — a quiesced phase boundary. */
    void drainQuiesce();
    /** Call @p f(name, part) for every checkpoint section but "sys",
     *  in a fixed order; @p self is const when saving. */
    template <typename Self, typename F>
    static void forEachSection(Self &self, F &&f);
    /** save -> scramble -> restore; state must be bit-identical after. */
    void checkpointRoundtrip();
    /** Clobber everything a checkpoint covers (restore must fix it). */
    void scrambleForRoundtrip();
    /** Fold per-window estimates into sample.* snapshot entries. */
    void insertSampleMetrics(obs::MetricsSnapshot &snap,
                             const std::vector<SampleWindow> &wins) const;

    void resetStats();
    void collectResults(Count instructions);

    /** Build the full dotted-name registry (construction time only). */
    void registerAllMetrics();
    /** Bind trace tracks for the enabled categories (construction). */
    void setupTracing(Simulator &sim);

    /// slab of pooled memory-path continuations; must be declared
    /// before every member that can hold a FinishCb into it
    FinishPool finish_pool_;

    SystemConfig cfg_;
    const WorkloadSet *workload_;

    MeshTopology mesh_;
    NocLatencyModel noc_;
    Rng rng_;

    std::unique_ptr<CounterDesign> design_;
    MetadataMap meta_;

    std::vector<std::unique_ptr<CoreModel>> cores_;
    std::vector<CacheArray> l1_;
    std::vector<CacheArray> l2_;
    CacheArray llc_;
    CacheArray mc_cache_;
    std::vector<std::unique_ptr<MshrFile>> l1_mshr_;
    std::vector<std::unique_ptr<MshrFile>> l2_mshr_;
    /// per-core pending stores merged into outstanding L1 misses
    std::vector<FlatAddrMap<bool>> pending_store_fill_;
    MshrFile mc_ctr_mshr_;
    /// per-core in-flight EMCC counter fetches -> arrival tick at L2
    std::vector<FlatAddrMap<Tick>> l2_ctr_inflight_;

    DramMemory dram_;
    AesPool mc_aes_;
    std::vector<std::unique_ptr<AesPool>> l2_aes_;

    std::unique_ptr<FaultInjector> fault_;   ///< null when no campaign
    std::unique_ptr<Watchdog> watchdog_;     ///< null when disabled

    PageMapper mapper_;
    /** meta_.dataBytes()-1 when that size is a power of two, else 0. */
    std::uint64_t data_mask_ = 0;

    /// EMCC: per-core resident-counter used flags
    std::vector<FlatAddrMap<bool>> l2_ctr_state_;

    /// §IV-F dynamic EMCC off: per-core sampling state
    struct IntensityState
    {
        Count l2_accesses = 0;
        Count dram_fills = 0;
        bool emcc_on = true;
    };
    std::vector<IntensityState> intensity_;
    void sampleIntensity(unsigned core);

    struct OverflowJob
    {
        Addr base{};
        Count issued = 0;
        Count completed = 0;
        Count total = 0;
    };
    /// slot handles into overflow_pool_ (jobs recur throughout steady
    /// state with morphable counters, so they are slab-recycled like
    /// the join/walk records)
    std::vector<std::uint32_t> overflow_active_;
    std::vector<std::uint32_t> overflow_queued_;

    /// slab-recycled per-LLC-miss join/walk/overflow records (zero
    /// allocation per miss in steady state; see test_memory_pools)
    SlabPool<JoinState> join_pool_;
    SlabPool<WalkState> walk_pool_;
    SlabPool<OverflowJob> overflow_pool_;
    /// reused tree-walk node list (mcFetchCounter never re-enters
    /// synchronously, so one scratch buffer suffices)
    std::vector<std::pair<Addr, bool>> walk_scratch_;

    /// true only inside fastForward(): fills apply at once and DRAM
    /// traffic becomes functional row touches (see at(), dramRequest)
    bool functional_ = false;

    SystemStats stats_;
    RunResults results_;
    Tick measure_start_{};
    unsigned cores_running_ = 0;

    /// non-null only when a ledger was attached to the Simulator; the
    /// miss path null-checks before allocating/stamping records
    obs::LatencyLedger *ledger_ = nullptr;

    /// non-null only when a resource monitor was attached; every
    /// reporting site null-checks, so --no-resmon costs one load
    obs::ResourceMonitor *resmon_ = nullptr;
    /// non-null only when a critical-path analyzer was attached; it
    /// observes each MissRecord just before the ledger folds it
    obs::CritPathAnalyzer *critpath_ = nullptr;
    obs::ResId res_noc_req_ = 0;     ///< L2->LLC request links
    obs::ResId res_noc_llc_mc_ = 0;  ///< LLC->MC forward link
    obs::ResId res_noc_resp_ = 0;    ///< MC->L2 response links
    obs::ResId res_mc_ctr_port_ = 0; ///< MC counter-cache lookup port
    obs::ResId res_l2_mshr_ = 0;     ///< pooled L2 MSHR occupancy

    /// interval stats-series sink (not owned; null when off). The
    /// active flag lets the pending sample event drain as a no-op once
    /// measurement ends instead of rescheduling forever.
    obs::StatsSeries *series_ = nullptr;
    bool series_active_ = false;
    void scheduleSeriesSample(Tick when);

    obs::MetricsRegistry metrics_;
    /// non-null only when a tracer is attached; per-category gates are
    /// pre-resolved into the individual track handles below
    obs::Tracer *tracer_ = nullptr;
    bool trace_cache_ = false;
    bool trace_crypto_ = false;
    bool trace_secmem_ = false;
    bool trace_noc_ = false;
    bool trace_sim_ = false;
    std::vector<obs::TrackId> l2_tracks_;      ///< per-core "l2.N"
    std::vector<obs::TrackId> l2_aes_tracks_;  ///< per-core "aes.l2.N"
    obs::TrackId mc_aes_track_ = 0;            ///< "aes.mc"
    obs::TrackId secmem_track_ = 0;            ///< "secmem.mc"
    obs::TrackId noc_track_ = 0;               ///< "noc.resp"
    obs::TrackId sim_track_ = 0;               ///< "sim.phases"
};

} // namespace emcc

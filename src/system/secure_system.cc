#include "system/secure_system.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <string>
#include <utility>

#include "common/error.hh"
#include "common/log.hh"

namespace emcc {

namespace {

CacheArrayConfig
arrayCfg(std::uint64_t bytes, unsigned assoc)
{
    CacheArrayConfig c;
    c.size_bytes = bytes;
    c.assoc = assoc;
    return c;
}

constexpr unsigned kMshrEntries = 4096;   ///< effectively unbounded
constexpr Tick kDramRetry = nsToTicks(20.0);

/** Reject invalid configs before any member construction touches them
 *  (zero-size caches, bad channel counts, ...). Throws ConfigError. */
const SystemConfig &
validated(const SystemConfig &cfg)
{
    cfg.validate();
    return cfg;
}

/** Every SystemStats counter, exported as "sys.<name>" by the metrics
 *  registry and as "<name>" by the CSV row (RunResults::toStatSet). */
constexpr std::pair<const char *, Count SystemStats::*> kSysCounters[] = {
    {"data_reads", &SystemStats::data_reads},
    {"data_writes", &SystemStats::data_writes},
    {"l1_hits", &SystemStats::l1_hits},
    {"l2_data_hits", &SystemStats::l2_data_hits},
    {"l2_data_misses", &SystemStats::l2_data_misses},
    {"llc_data_hits", &SystemStats::llc_data_hits},
    {"llc_data_misses", &SystemStats::llc_data_misses},
    {"mc_ctr_hits", &SystemStats::mc_ctr_hits},
    {"llc_ctr_hits", &SystemStats::llc_ctr_hits},
    {"llc_ctr_misses", &SystemStats::llc_ctr_misses},
    {"emcc_l2_ctr_hits", &SystemStats::emcc_l2_ctr_hits},
    {"emcc_l2_ctr_misses", &SystemStats::emcc_l2_ctr_misses},
    {"emcc_ctr_accesses_to_llc", &SystemStats::emcc_ctr_accesses_to_llc},
    {"baseline_ctr_accesses_to_llc",
     &SystemStats::baseline_ctr_accesses_to_llc},
    {"useless_ctr_accesses", &SystemStats::useless_ctr_accesses},
    {"l2_ctr_inserts", &SystemStats::l2_ctr_inserts},
    {"l2_ctr_invalidations", &SystemStats::l2_ctr_invalidations},
    {"decrypted_at_l2", &SystemStats::decrypted_at_l2},
    {"decrypted_at_mc", &SystemStats::decrypted_at_mc},
    {"adaptive_offloads", &SystemStats::adaptive_offloads},
    {"overflows", &SystemStats::overflows},
    {"llc_unverified_hits", &SystemStats::llc_unverified_hits},
    {"inclusive_back_invalidations",
     &SystemStats::inclusive_back_invalidations},
    {"dynamic_off_windows", &SystemStats::dynamic_off_windows},
    {"dynamic_windows", &SystemStats::dynamic_windows},
    {"integrity_detected", &SystemStats::integrity_detected},
    {"integrity_retried", &SystemStats::integrity_retried},
    {"integrity_recovered", &SystemStats::integrity_recovered},
    {"integrity_fatal", &SystemStats::integrity_fatal},
};

} // namespace

SecureSystem::SecureSystem(Simulator &sim, const SystemConfig &cfg,
                           const WorkloadSet *workload)
    : Component(sim, "system"),
      cfg_(validated(cfg)),
      workload_(workload),
      mesh_(),
      noc_(mesh_, cfg.noc),
      rng_(cfg.seed * 16777619 + 7),
      design_(CounterDesign::create(cfg.design)),
      meta_(*design_, cfg.data_region_bytes),
      llc_("llc", arrayCfg(cfg.llc_bytes, cfg.llc_assoc)),
      mc_cache_("mc_ctr", arrayCfg(cfg.mc_ctr_cache_bytes,
                                   cfg.mc_ctr_cache_assoc)),
      mc_ctr_mshr_(kMshrEntries),
      dram_(sim, "dram", cfg.dram),
      mc_aes_(AesPoolConfig{cfg.mcAesRate(), cfg.aes_latency}),
      mapper_(cfg.page_bytes, cfg.data_region_bytes, cfg.seed)
{
    fatal_if(workload_ == nullptr || workload_->per_core.empty(),
             "system needs a workload");
    if (isPowerOf2(meta_.dataBytes()))
        data_mask_ = meta_.dataBytes() - 1;
    fatal_if(workload_->per_core.size() < cfg_.cores,
             "workload has %zu traces for %u cores",
             workload_->per_core.size(), cfg_.cores);

    noc_.calibrateMeanOneWay(7.5);

    for (unsigned c = 0; c < cfg_.cores; ++c) {
        l1_.emplace_back("l1." + std::to_string(c),
                         arrayCfg(cfg.l1_bytes, cfg.l1_assoc));
        CacheArrayConfig l2c = arrayCfg(cfg.l2_bytes, cfg.l2_assoc);
        if (cfg_.countersInL2()) {
            l2c.class_cap_bytes[static_cast<int>(LineClass::Counter)] =
                cfg_.l2_ctr_cap_bytes;
        }
        l2_.emplace_back("l2." + std::to_string(c), l2c);
        l1_mshr_.push_back(std::make_unique<MshrFile>(kMshrEntries));
        l2_mshr_.push_back(std::make_unique<MshrFile>(kMshrEntries));
        l2_aes_.push_back(std::make_unique<AesPool>(
            AesPoolConfig{cfg.l2AesRate(), cfg.aes_latency}));
        cores_.push_back(std::make_unique<CoreModel>(
            sim, "core." + std::to_string(c), cfg.core, c,
            &workload_->per_core[c], this));
    }
    pending_store_fill_.resize(cfg_.cores);
    l2_ctr_inflight_.resize(cfg_.cores);
    l2_ctr_state_.resize(cfg_.cores);
    intensity_.resize(cfg_.cores);

    if (cfg_.faults.enabled()) {
        fault_ = std::make_unique<FaultInjector>(cfg_.faults,
                                                 cfg_.fault_seed);
    }
    if (cfg_.watchdog_window > Tick{}) {
        watchdog_ = std::make_unique<Watchdog>(
            sim, "watchdog", cfg_.watchdog_window, [this] {
                Count committed = 0;
                for (const auto &core : cores_)
                    committed += core->stats().committed_instructions;
                return committed;
            });
        watchdog_->addDiagnostic("event queue", [this] {
            const Tick next = this->sim().events().nextEventTick();
            return detail::format(
                "%zu live events, next at %.1f ns",
                this->sim().events().pending(),
                next == kTickInvalid ? -1.0 : ticksToNs(next));
        });
        watchdog_->addDiagnostic("mshrs", [this] {
            unsigned l1 = 0, l2 = 0;
            for (const auto &m : l1_mshr_)
                l1 += m->inUse();
            for (const auto &m : l2_mshr_)
                l2 += m->inUse();
            return detail::format(
                "L1 %u outstanding, L2 %u, MC counter %u", l1, l2,
                mc_ctr_mshr_.inUse());
        });
        watchdog_->addDiagnostic("dram", [this] {
            return detail::format("%zu queued requests across %u channels",
                                  dram_.queuedRequests(),
                                  dram_.numChannels());
        });
        watchdog_->addDiagnostic("cores", [this] {
            std::string out;
            for (unsigned c = 0; c < cfg_.cores; ++c) {
                const auto &core = *cores_[c];
                if (c)
                    out += "; ";
                out += detail::format(
                    "core %u ROB %llu/%u, WB %u/%u, %u loads in flight",
                    c,
                    static_cast<unsigned long long>(core.robOccupancy()),
                    cfg_.core.rob_entries,
                    core.outstandingStores(),
                    cfg_.core.max_outstanding_stores,
                    core.outstandingLoads());
            }
            return out;
        });
    }

    setupTracing(sim);
    registerAllMetrics();
}

void
SecureSystem::setupTracing(Simulator &sim)
{
    ledger_ = sim.ledger();
    tracer_ = sim.tracer();
    resmon_ = sim.resmon();
    critpath_ = sim.critpath();
    if (resmon_) {
        resmon_->bindTracer(tracer_);
        // Links the DRAM channels and AES pools do not own: the three
        // NoC flight stages (one link per L2 on the edges, one shared
        // LLC->MC trunk), the MC counter-cache lookup port, and the
        // pooled L2 MSHR files (occupancy-tracked; the entry count is
        // deliberately outsized, so queue depth is the signal there).
        // NoC links are fully pipelined latency pipes: a link of
        // flight latency L ns carries up to ~L flits in flight at one
        // flit/ns, so that pipeline depth is its unit capacity and
        // util reads as offered load over full pipelining.
        auto pipe_depth = [](Tick flight) {
            const double ns = ticksToNs(flight);
            return ns < 1.0 ? 1u : static_cast<unsigned>(ns);
        };
        res_noc_req_ = resmon_->add(
            "noc.req", cfg_.cores * pipe_depth(cfg_.req_l2_to_llc));
        res_noc_llc_mc_ = resmon_->add(
            "noc.llc_mc", pipe_depth(cfg_.noc_llc_mc));
        res_noc_resp_ = resmon_->add(
            "noc.resp", cfg_.cores * pipe_depth(cfg_.resp_mc_to_l2));
        res_mc_ctr_port_ = resmon_->add("mc_ctr.port", 1);
        res_l2_mshr_ = resmon_->add("l2.mshr",
                                    cfg_.cores * kMshrEntries);
        mc_aes_.bindMonitor(resmon_, "aes.mc");
        for (unsigned c = 0; c < cfg_.cores; ++c) {
            l2_aes_[c]->bindMonitor(resmon_,
                                    "aes.l2." + std::to_string(c));
        }
    }
    if (!tracer_)
        return;
    trace_cache_ = tracer_->enabled(obs::TraceCat::Cache);
    trace_crypto_ = tracer_->enabled(obs::TraceCat::Crypto);
    trace_secmem_ = tracer_->enabled(obs::TraceCat::Secmem);
    trace_noc_ = tracer_->enabled(obs::TraceCat::Noc);
    trace_sim_ = tracer_->enabled(obs::TraceCat::Sim);
    for (unsigned c = 0; c < cfg_.cores; ++c) {
        l2_tracks_.push_back(tracer_->track("l2." + std::to_string(c)));
        l2_aes_tracks_.push_back(
            tracer_->track("aes.l2." + std::to_string(c)));
    }
    mc_aes_track_ = tracer_->track("aes.mc");
    secmem_track_ = tracer_->track("secmem.mc");
    noc_track_ = tracer_->track("noc.resp");
    sim_track_ = tracer_->track("sim.phases");
}

void
SecureSystem::registerAllMetrics()
{
    for (const auto &[name, member] : kSysCounters)
        metrics_.addCounter(std::string("sys.") + name, &(stats_.*member));
    metrics_.addFormula("sys.l2_miss_latency_avg_ns", [this] {
        return safeRatio(stats_.l2_miss_latency_sum_ns,
                         static_cast<double>(
                             stats_.l2_miss_latency_count));
    });
    if (ledger_)
        ledger_->registerMetrics(metrics_, "lat.l2miss");
    if (resmon_)
        resmon_->registerMetrics(metrics_, "res");
    if (critpath_)
        critpath_->registerMetrics(metrics_, "cp");
    if (fault_) {
        metrics_.addHistogram("fault.detect_lag",
                              &fault_->report().detect_lag_ns);
    }

    for (unsigned c = 0; c < cfg_.cores; ++c) {
        const std::string n = std::to_string(c);
        cores_[c]->registerMetrics(metrics_, "cores." + n);
        l1_[c].registerMetrics(metrics_, "l1." + n);
        l2_[c].registerMetrics(metrics_, "l2." + n);
        l2_aes_[c]->registerMetrics(metrics_, "crypto.l2." + n);
    }
    llc_.registerMetrics(metrics_, "llc");
    mc_cache_.registerMetrics(metrics_, "mc_ctr");
    dram_.registerMetrics(metrics_, "dram");
    noc_.registerMetrics(metrics_, "noc");
    mc_aes_.registerMetrics(metrics_, "crypto.mc");
    meta_.registerMetrics(metrics_, "secmem");
    sim().events().registerMetrics(metrics_, "sim.events");
}

void
SecureSystem::sampleIntensity(unsigned core)
{
    // §IV-F: periodically compare how many L2 misses were satisfied by
    // DRAM to how many requests the L2 received; toggle EMCC off when
    // the phase is not memory-intensive.
    auto &st = intensity_[core];
    ++st.l2_accesses;
    if (st.l2_accesses < cfg_.intensity_window)
        return;
    const double per_thousand = 1000.0 *
        static_cast<double>(st.dram_fills) /
        static_cast<double>(st.l2_accesses);
    st.emcc_on = per_thousand >= cfg_.memory_intensity_threshold;
    ++stats_.dynamic_windows;
    if (!st.emcc_on)
        ++stats_.dynamic_off_windows;
    st.l2_accesses = 0;
    st.dram_fills = 0;
}

Addr
SecureSystem::translate(unsigned core, Addr vaddr)
{
    const std::uint64_t space_span = 1ull << 40;
    const Addr v = workload_->shared_address_space
                       ? vaddr : vaddr + space_span * core;
    // Power-of-two data regions (the common case) fold with a mask
    // instead of a 64-bit divide; data_mask_ is 0 otherwise.
    const Addr pa = mapper_.translate(v);
    if (data_mask_ != 0)
        return Addr{pa.value() & data_mask_};
    return Addr{pa % meta_.dataBytes()};
}

std::int64_t
SecureSystem::nocDeltaTicks()
{
    if (!cfg_.nonuniform_noc)
        return 0;
    return static_cast<std::int64_t>(noc_.sampleDeltaNs(rng_) * 1000.0);
}

Tick
SecureSystem::addDelta(Tick base, std::int64_t delta)
{
    if (delta >= 0)
        return base + static_cast<Tick>(delta);
    const Tick d = static_cast<Tick>(-delta);
    return base > d ? base - d : base;
}

// --------------------------------------------------------------- core port

void
SecureSystem::read(unsigned core, Addr vaddr, FinishCb done)
{
    const Addr pa = translate(core, vaddr);
    const Tick t0 = curTick();
    ++stats_.data_reads;

    if (l1_[core].access(pa, LineClass::Data, false)) {
        ++stats_.l1_hits;
        const Tick fill = t0 + cfg_.l1_latency;
        sim().post(fill, [done, fill] { done(fill); },
                       /*priority=*/0, EventTag::Core);
        return;
    }
    const Tick t1 = t0 + cfg_.l1_latency;
    const auto outcome = l1_mshr_[core]->allocate(blockAlign(pa), done);
    if (outcome == MshrOutcome::Merged)
        return;
    panic_if(outcome == MshrOutcome::Full, "L1 MSHR overflow");
    handleL1Miss(core, pa, /*is_store=*/false, t1);
}

void
SecureSystem::write(unsigned core, Addr vaddr, FinishCb done)
{
    const Addr pa = translate(core, vaddr);
    const Tick t0 = curTick();
    ++stats_.data_writes;

    if (l1_[core].access(pa, LineClass::Data, true)) {
        const Tick fill = t0 + cfg_.l1_latency;
        if (done) {
            sim().post(fill, [done, fill] { done(fill); },
                           /*priority=*/0, EventTag::Core);
        }
        return;
    }
    const Tick t1 = t0 + cfg_.l1_latency;
    const Addr blk = blockAlign(pa);
    if (l1_mshr_[core]->outstanding(blk)) {
        // Merge the store into the outstanding fill; it will land dirty.
        pending_store_fill_[core][blk] = true;
        l1_mshr_[core]->allocate(blk, done);
        return;
    }
    l1_mshr_[core]->allocate(blk, done);
    pending_store_fill_[core][blk] = true;
    handleL1Miss(core, pa, /*is_store=*/true, t1);
}

void
SecureSystem::handleL1Miss(unsigned core, Addr pa, bool is_store, Tick t1)
{
    l2Access(core, pa, is_store, t1, fin([this, core, pa](Tick fill) {
        const Addr blk = blockAlign(pa);
        bool dirty = false;
        if (const bool *p = pending_store_fill_[core].find(blk)) {
            dirty = *p;
            pending_store_fill_[core].erase(blk);
        }
        insertL1(core, pa, dirty);
        l1_mshr_[core]->complete(blk, fill);
    }));
}

void
SecureSystem::insertL1(unsigned core, Addr pa, bool dirty)
{
    auto victim = l1_[core].insert(pa, LineClass::Data, dirty);
    if (victim && victim->dirty) {
        // L1 dirty eviction lands in L2 (write-back, timing-free).
        auto v2 = l2_[core].insert(victim->addr, LineClass::Data, true);
        if (v2)
            handleL2Victim(core, *v2);
    }
}

// ------------------------------------------------------------------- L2

void
SecureSystem::l2Access(unsigned core, Addr pa, bool is_store, Tick t,
                       FinishCb fill_cb)
{
    const Tick t_l2 = t + cfg_.l2_latency;
    if (cfg_.dynamic_emcc_off)
        sampleIntensity(core);
    if (l2_[core].access(pa, LineClass::Data, is_store)) {
        ++stats_.l2_data_hits;
        sim().post(t_l2, [fill_cb, t_l2] { fill_cb(t_l2); },
                       /*priority=*/0, EventTag::Cache);
        return;
    }
    ++stats_.l2_data_misses;
    const Addr blk = blockAlign(pa);
    const Tick t_miss = t_l2;

    const auto outcome = l2_mshr_[core]->allocate(blk, fill_cb);
    if (outcome == MshrOutcome::Merged)
        return;
    panic_if(outcome == MshrOutcome::Full, "L2 MSHR overflow");
    if (resmon_ != nullptr)
        resmon_->enqueue(res_l2_mshr_, curTick());

    // Latency attribution: the primary allocation carries one record
    // through the memory system (merged requesters are credited as
    // coalesced waiters at fill time).
    obs::MissRecord *rec = ledger_ ? ledger_->begin(t_miss) : nullptr;
    if (rec)
        rec->stamp(obs::MissSegment::L2Lookup, t, t_l2);

    CtrPath ctr;
    if (cfg_.countersInL2())
        ctr = emccCounterPath(core, pa, t_miss, rec);

    llcDataAccess(core, pa, t_miss, ctr, rec,
                  fin([this, core, pa, blk, t_miss, rec](Tick fill) {
        stats_.l2_miss_latency_sum_ns += ticksToNs(fill - t_miss);
        ++stats_.l2_miss_latency_count;
        if (trace_cache_) {
            tracer_->span(obs::TraceCat::Cache, l2_tracks_[core],
                          "l2_miss", t_miss, fill);
        }
        if (rec) {
            rec->waiters = l2_mshr_[core]->waiters(blk);
            if (critpath_ != nullptr)
                critpath_->observe(*rec, fill);
            ledger_->finish(rec, fill);
        }
        insertL2Data(core, pa, /*dirty=*/false, fill);
        sim().post(fill, [this, core, blk, fill] {
            if (resmon_ != nullptr)
                resmon_->dequeue(res_l2_mshr_, curTick());
            l2_mshr_[core]->complete(blk, fill);
        }, /*priority=*/0, EventTag::Cache);
    }));
}

SecureSystem::CtrPath
SecureSystem::emccCounterPath(unsigned core, Addr pa, Tick t_miss,
                              obs::MissRecord *rec)
{
    CtrPath out;
    // §IV-F: EMCC dynamically offloads everything to the MC during
    // non-memory-intensive phases.
    if (cfg_.dynamic_emcc_off && !intensity_[core].emcc_on) {
        out.mc_decrypts = true;
        return out;
    }
    const Addr ctr = meta_.counterBlockAddr(pa);
    // Serial lookup during spare L2 cycles ('J').
    const Tick t_lookup = t_miss + cfg_.l2_spare_cycle_wait +
                          cfg_.l2_latency;
    const Tick decode = design_->decodeLatency();
    out.ctr_start = t_lookup;

    if (l2_[core].access(ctr, LineClass::Counter, false)) {
        ++stats_.emcc_l2_ctr_hits;
        if (fault_)
            fault_->onCounterHit(ctr, curTick());
        out.ctr_ready_at_l2 = t_lookup + decode;
        if (rec) {
            rec->stamp(obs::MissSegment::CtrFetch, t_lookup,
                       out.ctr_ready_at_l2);
        }
        return out;
    }
    ++stats_.emcc_l2_ctr_misses;

    // A fetch for this counter block may already be in flight.
    auto &inflight = l2_ctr_inflight_[core];
    if (const Tick *arrival = inflight.find(ctr)) {
        if (*arrival == kTickInvalid) {
            // In flight via the MC (LLC miss): the MC will decrypt.
            out.mc_decrypts = true;
        } else {
            out.ctr_ready_at_l2 = *arrival + decode;
            if (rec) {
                rec->stamp(obs::MissSegment::CtrFetch, t_lookup,
                           out.ctr_ready_at_l2);
            }
        }
        return out;
    }

    // Parallel (speculative) counter request to the LLC. The
    // useless-access tracking entry is created at fetch initiation so
    // the triggering miss itself can mark it used (the array insertion
    // happens later, at the arrival tick).
    ++stats_.emcc_ctr_accesses_to_llc;
    if (llc_.access(ctr, LineClass::Counter, false)) {
        if (fault_)
            fault_->onCounterHit(ctr, curTick());
        auto &state = l2_ctr_state_[core];
        if (!state.contains(ctr)) {
            ++stats_.l2_ctr_inserts;
            state.emplace(ctr, false);
        }
        const std::int64_t delta = nocDeltaTicks();
        const Tick arrival = addDelta(
            t_lookup + cfg_.llc_ctr_access + cfg_.emcc_ctr_payload_extra,
            delta);
        inflight.emplace(ctr, arrival);
        if (trace_secmem_) {
            tracer_->span(obs::TraceCat::Secmem, l2_tracks_[core],
                          "ctr_fetch_llc", t_lookup, arrival);
        }
        insertL2Counter(core, ctr, arrival);
        out.ctr_ready_at_l2 = arrival + decode;
        if (rec) {
            rec->stamp(obs::MissSegment::CtrFetch, t_lookup,
                       out.ctr_ready_at_l2);
        }
        return out;
    }

    // Counter misses in LLC: the request is forwarded to the MC, which
    // fetches + verifies it and decrypts the data itself (§IV-D).
    out.mc_decrypts = true;
    inflight.emplace(ctr, kTickInvalid);
    const Tick t_mc = t_lookup + cfg_.req_l2_to_llc + cfg_.llc_tag +
                      cfg_.noc_llc_mc;
    mcFetchCounter(pa, t_mc, /*count_buckets=*/true,
                   fin([this, core, ctr](Tick verified) {
        // Verified counter returns to the LLC and the requesting L2.
        // It already served this miss (the MC used it to decrypt the
        // data), so it starts life in L2 marked used.
        auto &state = l2_ctr_state_[core];
        if (!state.contains(ctr)) {
            ++stats_.l2_ctr_inserts;
            state.emplace(ctr, true);
        }
        insertLlc(ctr, LineClass::Counter, false, verified);
        const Tick at_l2 = verified + cfg_.resp_mc_to_l2;
        insertL2Counter(core, ctr, at_l2);
        sim().post(at_l2, [this, core, ctr] {
            auto &inf = l2_ctr_inflight_[core];
            const Tick *arrival = inf.find(ctr);
            if (arrival && *arrival == kTickInvalid)
                inf.erase(ctr);
        }, /*priority=*/0, EventTag::Secmem);
    }));
    return out;
}

void
SecureSystem::llcDataAccess(unsigned core, Addr pa, Tick t_miss,
                            const CtrPath &ctr, obs::MissRecord *rec,
                            FinishCb fill_cb)
{
    if (llc_.access(pa, LineClass::Data, false)) {
        ++stats_.llc_data_hits;
        const Tick fill = addDelta(t_miss + cfg_.llc_latency,
                                   nocDeltaTicks());
        if (rec)
            rec->stamp(obs::MissSegment::Llc, t_miss, fill);
        if (cfg_.inclusive_llc && llc_.getFlag(pa)) {
            // §IV-F inclusive mode: the LLC copy is still encrypted &
            // unverified; the L2 decrypts and verifies it on arrival.
            ++stats_.llc_unverified_hits;
            llc_.setFlag(pa, false);   // the L2 copy will be verified
            if (ctr.atL2()) {
                ++stats_.decrypted_at_l2;
                const Tick aes_done = std::max(
                    l2_aes_[core]->submit(t_miss, 5),
                    ctr.ctr_ready_at_l2 + cfg_.aes_latency);
                const Tick done = std::max(fill, aes_done);
                if (rec) {
                    // Crypto lane: counter decode + AES at the L2,
                    // hidden up to the data's own LLC-hit arrival.
                    rec->stampCrypto(ctr.ctr_start, ctr.ctr_ready_at_l2,
                                     aes_done, aes_done, cfg_.aes_latency);
                    rec->hide_until = fill;
                }
                sim().post(done, [fill_cb, done] { fill_cb(done); });
            } else {
                // No counter at the L2: the MC's machinery verifies,
                // costing a counter fetch + AES + the response trip.
                ++stats_.decrypted_at_mc;
                const Tick t_mc = t_miss + cfg_.req_l2_to_llc +
                                  cfg_.llc_tag + cfg_.noc_llc_mc;
                mcFetchCounter(pa, t_mc, /*count_buckets=*/false,
                               fin([this, fill, fill_cb, rec,
                                    t_mc](Tick ctr_tick) {
                    const Tick aes_start =
                        ctr_tick + design_->decodeLatency();
                    const Tick aes_done = mc_aes_.submit(aes_start, 5);
                    const Tick done = std::max(
                        fill, aes_done + cfg_.resp_mc_to_l2);
                    if (rec) {
                        // MC-side verify of an unverified LLC hit: the
                        // data already sits at the L2 at `fill`, so any
                        // crypto time past it — including the MC-to-L2
                        // response trip — is exposed.
                        rec->stamp(obs::MissSegment::CtrFetch, t_mc,
                                   ctr_tick);
                        rec->stampCrypto(t_mc, aes_start, aes_done,
                                         aes_done + cfg_.resp_mc_to_l2,
                                         cfg_.aes_latency);
                        rec->hide_until = fill;
                    }
                    sim().post(done,
                                   [fill_cb, done] { fill_cb(done); });
                }));
            }
            return;
        }
        // Data in the LLC is plaintext (it got there as an L2 victim or
        // was verified before insertion); no cryptography needed, and
        // any speculative counter access stays unused unless a later
        // LLC miss uses it.
        sim().post(fill, [fill_cb, fill] { fill_cb(fill); });
        return;
    }
    ++stats_.llc_data_misses;
    if (cfg_.dynamic_emcc_off)
        ++intensity_[core].dram_fills;

    CtrPath ctr_final = ctr;
    if (ctr.atL2()) {
        // The counter in L2 is genuinely used for this LLC miss.
        const Addr ctr_addr = meta_.counterBlockAddr(pa);
        if (bool *used = l2_ctr_state_[core].find(ctr_addr))
            *used = true;
        // Adaptive offload: if the L2 AES pool is too backed up, embed
        // the offload bit in the miss request and let the MC decrypt.
        if (cfg_.adaptive_offload &&
            l2_aes_[core]->queueDelay(t_miss) > cfg_.resp_mc_to_l2) {
            ctr_final.mc_decrypts = true;
            ++stats_.adaptive_offloads;
        }
    }

    const Tick tag = cfg_.xpt ? Tick{} : cfg_.llc_tag;
    const Tick t_mc = t_miss + cfg_.req_l2_to_llc + tag + cfg_.noc_llc_mc;
    if (rec) {
        const Tick at_llc = t_miss + cfg_.req_l2_to_llc;
        rec->stamp(obs::MissSegment::NocReq, t_miss, at_llc);
        rec->stamp(obs::MissSegment::Llc, at_llc, at_llc + tag);
        rec->stamp(obs::MissSegment::NocLlcMc, at_llc + tag, t_mc);
    }
    if (resmon_ != nullptr) {
        const Tick at_llc = t_miss + cfg_.req_l2_to_llc;
        resmon_->service(res_noc_req_, t_miss, at_llc);
        resmon_->service(res_noc_llc_mc_, at_llc + tag, t_mc);
    }
    mcDataRead(core, pa, t_mc, ctr_final, t_miss, rec, std::move(fill_cb));
}

// ------------------------------------------------------------------- MC

std::uint32_t
SecureSystem::allocJoin(FinishCb cb, unsigned core, Addr pa,
                        std::int64_t resp_delta, obs::MissRecord *rec)
{
    // Slab-recycled records are reused in place: reset every field.
    const std::uint32_t slot = join_pool_.alloc();
    JoinState &j = join_pool_.at(slot);
    j.data_done = kTickInvalid;
    j.crypto_done = kTickInvalid;
    j.crypto_needed = true;
    j.crypto_at_l2 = false;
    j.cb = std::move(cb);
    j.core = core;
    j.pa = pa;
    j.resp_delta = resp_delta;
    j.rec = rec;
    return slot;
}

void
SecureSystem::joinTryFinish(std::uint32_t slot)
{
    // Both the data-fetch and the crypto continuation call this once;
    // only the later of the two passes the gate below, so the slot is
    // released exactly once.
    JoinState &join = join_pool_.at(slot);
    if (join.data_done == kTickInvalid)
        return;
    if (join.crypto_needed && join.crypto_done == kTickInvalid)
        return;
    Tick leave_mc = join.data_done;
    if (join.crypto_needed && !join.crypto_at_l2)
        leave_mc = std::max(leave_mc, join.crypto_done);
    const Tick data_fill = addDelta(leave_mc + cfg_.resp_mc_to_l2,
                                    join.resp_delta);
    Tick fill = data_fill;
    if (join.crypto_at_l2)
        fill = std::max(fill, join.crypto_done);
    if (trace_noc_) {
        tracer_->span(obs::TraceCat::Noc, noc_track_, "noc_resp",
                      leave_mc, std::max(fill, leave_mc));
    }
    if (resmon_ != nullptr) {
        resmon_->service(res_noc_resp_, leave_mc,
                         std::max(data_fill, leave_mc));
    }
    if (join.rec) {
        join.rec->stamp(obs::MissSegment::NocResp, leave_mc, data_fill);
        // Crypto work is hidden while the data itself is still in
        // flight: for L2-side crypto that is until the block lands
        // at the L2; for MC-side crypto the data waits at the MC,
        // so only time before data_done is hidden.
        join.rec->hide_until = join.crypto_at_l2 ? data_fill
                                                 : join.data_done;
    }
    // §IV-F inclusive mode: the response also allocates in the LLC
    // on its way up, marked unverified if the L2 does the crypto.
    if (cfg_.inclusive_llc) {
        insertLlc(join.pa, LineClass::Data, false,
                  leave_mc + cfg_.noc_llc_mc,
                  /*unverified=*/join.crypto_at_l2);
    }
    // Release before completing: the callback may re-enter the miss
    // path and recycle this very slot.
    const unsigned core = join.core;
    const Addr pa = join.pa;
    const bool verify = fault_ != nullptr && join.crypto_needed;
    FinishCb cb = std::move(join.cb);
    join_pool_.release(slot);
    // Every decrypted fill passes the modeled MAC check before the
    // L2 may consume it; failures enter the recovery protocol.
    if (verify)
        finishWithVerify(core, pa, fill, std::move(cb));
    else
        cb(fill);
}

void
SecureSystem::mcDataRead(unsigned core, Addr pa, Tick t_mc,
                         const CtrPath &ctr, Tick t_miss,
                         obs::MissRecord *rec, FinishCb fill_at_l2_cb)
{
    std::int64_t resp_delta = nocDeltaTicks();
    if (fault_) {
        resp_delta += static_cast<std::int64_t>(
            fault_->responseDelayTicks(curTick()));
    }
    // Pooled join between the DRAM data fetch and the crypto path; the
    // continuations below carry only [this, slot].
    const std::uint32_t slot =
        allocJoin(std::move(fill_at_l2_cb), core, pa, resp_delta, rec);
    JoinState &join = join_pool_.at(slot);

    // ---- crypto path: at the L2 when the counter path put the counter
    // there (EMCC), else at the MC for every secure scheme.
    if (ctr.atL2()) {
        ++stats_.decrypted_at_l2;
        join.crypto_at_l2 = true;
        // The pool's *throughput* is consumed in submission order; the
        // *start* of this block's AES is additionally gated on the
        // decoded counter and (optionally) the LLC-hit-latency waste
        // guard. Modeling them separately keeps one delayed start from
        // idling the whole pool.
        const Tick slot_done = l2_aes_[core]->submit(t_miss, 5);
        Tick gate = ctr.ctr_ready_at_l2 + aesStall();
        if (cfg_.llc_hit_wait)
            gate = std::max(gate, t_miss + cfg_.llc_latency);
        join.crypto_done = std::max(slot_done, gate + cfg_.aes_latency);
        if (trace_crypto_) {
            tracer_->span(obs::TraceCat::Crypto, l2_aes_tracks_[core],
                          "aes_decrypt", t_miss, join.crypto_done);
        }
        if (rec) {
            rec->stampCrypto(ctr.ctr_start, gate, join.crypto_done,
                             join.crypto_done, cfg_.aes_latency);
        }
    } else if (!cfg_.secure()) {
        join.crypto_needed = false;
    } else {
        // EMCC merges with the counter fetch already in flight (or a
        // hit); its counter buckets were counted at the L2.
        const bool l2_ctrs = cfg_.countersInL2();
        if (l2_ctrs)
            ++stats_.decrypted_at_mc;
        mcFetchCounter(pa, t_mc, /*count_buckets=*/!l2_ctrs,
                       fin([this, slot, rec, t_mc](Tick ctr_tick) {
            JoinState &j = join_pool_.at(slot);
            const Tick start = ctr_tick + design_->decodeLatency() +
                               aesStall();
            j.crypto_done = mc_aes_.submit(start, 5);
            if (trace_crypto_) {
                tracer_->span(obs::TraceCat::Crypto, mc_aes_track_,
                              "aes_decrypt", start, j.crypto_done);
            }
            if (rec) {
                rec->stamp(obs::MissSegment::CtrFetch, t_mc, ctr_tick);
                rec->stampCrypto(t_mc, start, j.crypto_done,
                                 j.crypto_done, cfg_.aes_latency);
            }
            joinTryFinish(slot);
        }));
    }

    // ---- data path (always asynchronous: dramRequest posts an event,
    // so the join cannot complete before this function returns)
    dramRequest(pa, MemClass::Data, /*is_write=*/false, t_mc,
                fin([this, pa, slot](Tick done) {
        if (fault_)
            fault_->onDataFetched(blockAlign(pa), done);
        join_pool_.at(slot).data_done = done;
        joinTryFinish(slot);
    }), rec);
}

void
SecureSystem::mcFetchCounter(Addr pa, Tick t, bool count_buckets,
                             FinishCb cb)
{
    const Addr ctr = meta_.counterBlockAddr(pa);
    // Every counter fetch occupies the MC counter-cache lookup port for
    // one access latency, hit or miss.
    if (resmon_ != nullptr) {
        resmon_->service(res_mc_ctr_port_, t,
                         t + cfg_.mc_ctr_cache_latency);
    }
    if (mc_cache_.access(ctr, LineClass::Counter, false)) {
        if (count_buckets)
            ++stats_.mc_ctr_hits;
        if (fault_)
            fault_->onCounterHit(ctr, curTick());
        const Tick ready = t + cfg_.mc_ctr_cache_latency;
        cb(ready);
        return;
    }
    const Tick t1 = t + cfg_.mc_ctr_cache_latency;

    // The LLC baseline's serial MC-side counter accesses (Fig 12).
    if (cfg_.countersInLlc() && !cfg_.countersInL2())
        ++stats_.baseline_ctr_accesses_to_llc;
    if (cfg_.countersInLlc() &&
        llc_.access(ctr, LineClass::Counter, false)) {
        if (count_buckets)
            ++stats_.llc_ctr_hits;
        if (fault_)
            fault_->onCounterHit(ctr, curTick());
        const Tick ready = addDelta(t1 + cfg_.llc_ctr_access,
                                    nocDeltaTicks());
        insertMcCache(ctr, LineClass::Counter, false, ready);
        cb(ready);
        return;
    }

    if (count_buckets)
        ++stats_.llc_ctr_misses;

    // Miss determination round-trips the LLC for schemes that cache
    // counters there; MC-only goes straight to DRAM.
    const Tick t2 = cfg_.countersInLlc() ? t1 + cfg_.llc_ctr_access : t1;

    const auto outcome = mc_ctr_mshr_.allocate(ctr, cb);
    if (outcome == MshrOutcome::Merged)
        return;
    panic_if(outcome == MshrOutcome::Full, "MC counter MSHR overflow");

    // Determine which tree levels must also be fetched (functional
    // walk); fetches issue in parallel, verification serializes on AES.
    // The fan-in record is slab-pooled and the scratch node list is a
    // reused member, so a full walk costs zero heap allocations in
    // steady state. (Safe to share the scratch: nothing below re-enters
    // mcFetchCounter synchronously — every continuation is event-posted.)
    const std::uint32_t wslot = walk_pool_.alloc();
    {
        WalkState &walk = walk_pool_.at(wslot);
        walk.outstanding = 1;   // the counter block itself
        walk.max_arrival = Tick{};
        walk.fetched_levels = 0;
        walk.ctr = ctr;
        walk.t2 = t2;
    }

    auto &node_fetches = walk_scratch_;   // (addr, from_llc)
    node_fetches.clear();
    for (unsigned lvl = 1; lvl < meta_.numLevels(); ++lvl) {
        const Addr node = meta_.treeNodeAddr(lvl, pa);
        if (mc_cache_.access(node, LineClass::TreeNode, false))
            break;
        if (cfg_.countersInLlc() &&
            llc_.access(node, LineClass::TreeNode, false)) {
            node_fetches.emplace_back(node, true);
            break;
        }
        node_fetches.emplace_back(node, false);
    }
    {
        WalkState &walk = walk_pool_.at(wslot);
        walk.outstanding += static_cast<unsigned>(node_fetches.size());
        walk.fetched_levels = static_cast<unsigned>(node_fetches.size());
    }

    dramRequest(ctr, MemClass::Counter, false, t2,
                fin([this, ctr, wslot](Tick when) {
        if (fault_)
            fault_->onCounterFetched(ctr, when);
        walkArrive(wslot, when);
    }));
    for (const auto &[node, from_llc] : node_fetches) {
        if (from_llc) {
            const Tick ready = addDelta(t2 + cfg_.llc_ctr_access,
                                        nocDeltaTicks());
            insertMcCache(node, LineClass::TreeNode, false, ready);
            sim().post(ready,
                           [this, wslot, ready] {
                walkArrive(wslot, ready);
            }, /*priority=*/0, EventTag::Secmem);
        } else {
            dramRequest(node, MemClass::Counter, false, t2,
                        fin([this, node, wslot](Tick when) {
                if (fault_)
                    fault_->onTreeNodeFetched(node, when);
                insertMcCache(node, LineClass::TreeNode, false, when);
                if (cfg_.countersInLlc())
                    insertLlc(node, LineClass::TreeNode, false, when);
                walkArrive(wslot, when);
            }));
        }
    }
}

void
SecureSystem::walkArrive(std::uint32_t slot, Tick when)
{
    WalkState &walk = walk_pool_.at(slot);
    walk.max_arrival = std::max(walk.max_arrival, when);
    panic_if(walk.outstanding == 0, "tree walk underflow");
    if (--walk.outstanding > 0)
        return;
    // All blocks arrived; verify bottom-up: one AES per level plus
    // one for the counter block itself.
    const Tick verified = mc_aes_.submit(walk.max_arrival,
                                         walk.fetched_levels + 1);
    if (trace_secmem_) {
        tracer_->span(obs::TraceCat::Secmem, secmem_track_,
                      "ctr_walk", walk.t2, verified);
    }
    // Release before completing the MSHR: waiters may re-enter the
    // counter-fetch path and recycle this slot.
    const Addr ctr = walk.ctr;
    walk_pool_.release(slot);
    insertMcCache(ctr, LineClass::Counter, false, verified);
    if (cfg_.countersInLlc())
        insertLlc(ctr, LineClass::Counter, false, verified);
    mc_ctr_mshr_.complete(ctr, verified);
}

void
SecureSystem::mcHandleWriteback(Addr pa, Tick t)
{
    if (functional_) {
        ffwdMcWriteback(pa);
        return;
    }
    if (!cfg_.secure()) {
        // No metadata, no encryption: the writeback goes straight out.
        dramRequest(pa, MemClass::Data, /*is_write=*/true, t, nullptr);
        return;
    }
    mcFetchCounter(pa, t, /*count_buckets=*/false,
                   fin([this, pa](Tick ctr_tick) {
        const Addr ctr = meta_.counterBlockAddr(pa);
        const auto wr = design_->bumpCounter(pa);
        if (wr.overflow) {
            ++stats_.overflows;
            const std::uint64_t coverage = design_->coverageBytes();
            scheduleOverflowJob(Addr{(pa / coverage) * coverage},
                                wr.reencrypt_blocks, ctr_tick);
        }
        // The updated counter lives dirty in the MC cache; stale copies
        // elsewhere are invalidated (Fig 23 counts the L2 ones).
        insertMcCache(ctr, LineClass::Counter, true, ctr_tick);
        invalidateStaleCounter(ctr);

        // Encrypt + MAC update: 8 AES ops (4 encrypt + 4 MAC words).
        const Tick aes_done = mc_aes_.submit(
            ctr_tick + design_->decodeLatency(), 8);
        dramRequest(pa, MemClass::Data, /*is_write=*/true, aes_done,
                    nullptr);
    }));
}

void
SecureSystem::scheduleOverflowJob(Addr region_base, Count blocks, Tick t)
{
    const std::uint32_t slot = overflow_pool_.alloc();
    OverflowJob &job = overflow_pool_.at(slot);
    job = OverflowJob{};
    job.base = region_base;
    job.total = blocks;
    if (overflow_active_.size() < 2)
        overflow_active_.push_back(slot);
    else
        overflow_queued_.push_back(slot);
    pumpOverflowJobs(t);
}

void
SecureSystem::pumpOverflowJobs(Tick t)
{
    // Keep at most 8 overflow requests in flight per job (paper §V).
    for (const std::uint32_t slot : overflow_active_) {
        OverflowJob &job = overflow_pool_.at(slot);
        while (job.issued < job.total &&
               job.issued - job.completed < 8) {
            const Addr addr = job.base + job.issued * kBlockBytes;
            ++job.issued;
            dramRequest(addr, MemClass::OverflowL0, false, t,
                        fin([this, addr, slot](Tick when) {
                // Re-encrypted block is written back. The slot is
                // still live here: jobs only retire inside the pump
                // below, after their last completion is counted.
                dramRequest(addr, MemClass::OverflowL0, true, when,
                            nullptr);
                ++overflow_pool_.at(slot).completed;
                pumpOverflowJobs(when);
            }));
        }
    }
    // Retire finished jobs and promote queued ones.
    for (auto it = overflow_active_.begin();
         it != overflow_active_.end();) {
        const OverflowJob &job = overflow_pool_.at(*it);
        if (job.completed >= job.total) {
            overflow_pool_.release(*it);
            it = overflow_active_.erase(it);
            if (!overflow_queued_.empty()) {
                overflow_active_.push_back(overflow_queued_.front());
                overflow_queued_.erase(overflow_queued_.begin());
            }
        } else {
            ++it;
        }
    }
}

void
SecureSystem::dramRequest(Addr addr, MemClass cls, bool is_write, Tick t,
                          FinishCb done, obs::MissRecord *attrib)
{
    if (functional_) {
        // Fast-forward walks its reads inline; only the write traffic
        // of the shared fill layer arrives here, as a row touch now.
        panic_if(!is_write, "functional DRAM read");
        dram_.functionalTouch(addr, curTick(), cls, is_write);
        return;
    }
    // done is a 16-byte pooled handle (the closure itself stays put in
    // the FinishPool slab), so this — the hottest scheduling site in
    // the tree — copies only plain values into the event entry.
    sim().post(std::max(t, curTick()),
                   [this, addr, cls, is_write, done, attrib] {
        // A write retiring to DRAM replaces the stored block, healing
        // any persistent taint an attacker left on the old contents.
        if (fault_ && is_write) {
            fault_->onDramWrite(blockAlign(addr),
                                cls == MemClass::Counter ||
                                    cls == MemClass::OverflowHi,
                                curTick());
        }
        tryEnqueueDram(addr, cls, is_write, done, attrib);
    }, /*priority=*/0, EventTag::Dram);
}

// ------------------------------------------------- verify & recovery

Tick
SecureSystem::aesStall()
{
    return fault_ ? fault_->aesStallTicks(curTick()) : Tick{};
}

std::vector<Addr>
SecureSystem::treeNodesFor(Addr pa) const
{
    // The interior nodes whose hash chain covers pa's counter, bottom-up
    // (the same walk mcFetchCounter performs). Only computed when a
    // tree campaign is live: every other spec keeps the per-fill verify
    // allocation-free.
    std::vector<Addr> nodes;
    if (!fault_ || !fault_->hasTreeCampaign())
        return nodes;
    nodes.reserve(meta_.numLevels());
    for (unsigned lvl = 1; lvl < meta_.numLevels(); ++lvl)
        nodes.push_back(meta_.treeNodeAddr(lvl, pa));
    return nodes;
}

void
SecureSystem::finishWithVerify(unsigned core, Addr pa, Tick fill,
                               FinishCb cb)
{
    const Addr blk = blockAlign(pa);
    const Addr ctr = meta_.counterBlockAddr(pa);
    auto det = fault_->checkVerify(blk, ctr, fill, treeNodesFor(pa));
    if (!det) {
        cb(fill);
        return;
    }
    ++stats_.integrity_detected;
    recoverFill(core, pa, fill, *det, /*attempt=*/1, std::move(cb));
}

void
SecureSystem::recoverFill(unsigned core, Addr pa, Tick t,
                          FaultInjector::Detection det, unsigned attempt,
                          FinishCb cb)
{
    const Addr blk = blockAlign(pa);
    const Addr ctr = meta_.counterBlockAddr(pa);

    if (attempt > cfg_.max_verify_retries) {
        ++stats_.integrity_fatal;
        fault_->noteFatal(det, t, attempt - 1);
        if (cfg_.fault_strict) {
            throw IntegrityViolation(
                detail::format("MAC verification failed for block %#llx "
                               "(%s injected at %.1f ns)",
                               static_cast<unsigned long long>(blk),
                               faultKindName(det.kind),
                               ticksToNs(det.injected_at)),
                blk, attempt - 1);
        }
        // Fail-stop model: a real machine raises a machine check and
        // poisons the line; the simulator records the fatality and lets
        // the access complete so the rest of the run stays measurable.
        cb(t);
        return;
    }
    ++stats_.integrity_retried;

    // Poisoned metadata may be cached anywhere: drop every cached copy
    // of the counter, the LLC data copy and — when a tree campaign is
    // live — every covering integrity-tree interior node, then re-fetch
    // the lot straight from DRAM, bypassing all caches. Re-walking the
    // whole node chain is what makes recovery from an interior-node
    // flip a genuine multi-level re-verification.
    const std::vector<Addr> nodes = treeNodesFor(pa);
    mc_cache_.invalidate(ctr);
    invalidateStaleCounter(ctr);
    llc_.invalidate(blk);
    for (Addr node : nodes) {
        mc_cache_.invalidate(node);
        llc_.invalidate(node);
    }
    fault_->recoveryRefetch(blk, ctr, t, nodes);

    struct Refetch
    {
        Tick ctr_done = kTickInvalid;
        Tick data_done = kTickInvalid;
        Tick nodes_done{};
        unsigned nodes_outstanding = 0;
        unsigned nodes_total = 0;
    };
    auto re = std::make_shared<Refetch>();
    re->nodes_outstanding = static_cast<unsigned>(nodes.size());
    re->nodes_total = re->nodes_outstanding;
    auto rejoin = [this, core, pa, blk, ctr, nodes, det, attempt, re,
                   cb] {
        if (re->ctr_done == kTickInvalid ||
            re->data_done == kTickInvalid || re->nodes_outstanding > 0)
            return;
        // Decode the fresh counter, re-decrypt and re-verify: one AES
        // for the OTP regeneration plus the MAC recomputation, plus one
        // hash check per re-fetched tree level.
        const Tick start = std::max(
            {re->ctr_done + design_->decodeLatency(), re->data_done,
             re->nodes_done});
        const Tick redone =
            mc_aes_.submit(start + aesStall(), 6 + re->nodes_total) +
            cfg_.resp_mc_to_l2;
        auto again = fault_->checkVerify(blk, ctr, redone, nodes);
        if (!again) {
            ++stats_.integrity_recovered;
            fault_->noteRecovered(det, redone, attempt);
            cb(redone);
            return;
        }
        recoverFill(core, pa, redone, *again, attempt + 1, cb);
    };
    // Deliberately raw DRAM fetches: recovery traffic must not trip the
    // activation hooks, or a campaign could re-inject into its own
    // recovery and starve it.
    dramRequest(ctr, MemClass::Counter, /*is_write=*/false, t,
                fin([re, rejoin](Tick when) {
        re->ctr_done = when;
        rejoin();
    }));
    dramRequest(blk, MemClass::Data, /*is_write=*/false, t,
                fin([re, rejoin](Tick when) {
        re->data_done = when;
        rejoin();
    }));
    for (Addr node : nodes) {
        dramRequest(node, MemClass::Counter, /*is_write=*/false, t,
                    fin([re, rejoin](Tick when) {
            re->nodes_done = std::max(re->nodes_done, when);
            --re->nodes_outstanding;
            rejoin();
        }));
    }
}

void
SecureSystem::tryEnqueueDram(Addr addr, MemClass cls, bool is_write,
                             FinishCb done, obs::MissRecord *attrib)
{
    DramRequest req;
    req.addr = addr;
    req.is_write = is_write;
    req.mclass = cls;
    req.attrib = attrib;
    req.on_complete = done;
    // A rejected request leaves the pooled continuation untouched (the
    // handle in the retry closure still addresses the same slot), so
    // the whole retry loop never copies or re-allocates the closure.
    if (!dram_.enqueue(req)) {
        sim().postIn(kDramRetry,
                         [this, addr, cls, is_write, done, attrib] {
            tryEnqueueDram(addr, cls, is_write, done, attrib);
        }, /*priority=*/0, EventTag::Dram);
    }
}

// --------------------------------------------------------------- fills

void
SecureSystem::insertL2Data(unsigned core, Addr pa, bool dirty, Tick t)
{
    at(t, [this, core, pa, dirty] {
        auto victim = l2_[core].insert(pa, LineClass::Data, dirty);
        if (victim)
            handleL2Victim(core, *victim);
    });
}

void
SecureSystem::insertL2Counter(unsigned core, Addr ctr_addr, Tick t)
{
    at(t, [this, core, ctr_addr] {
        auto &inflight = l2_ctr_inflight_[core];
        inflight.erase(ctr_addr);
        // The useless-tracking entry normally exists already (created
        // at fetch initiation); create a fallback one if not.
        auto &state = l2_ctr_state_[core];
        if (!state.contains(ctr_addr)) {
            ++stats_.l2_ctr_inserts;
            state.emplace(ctr_addr, false);
        }
        auto victim = l2_[core].insert(ctr_addr, LineClass::Counter,
                                       false);
        if (victim)
            handleL2Victim(core, *victim);
    });
}

void
SecureSystem::noteL2CounterGone(unsigned core, Addr ctr_addr,
                                bool invalidated)
{
    auto &state = l2_ctr_state_[core];
    const bool *used = state.find(ctr_addr);
    if (!used)
        return;
    if (!*used)
        ++stats_.useless_ctr_accesses;
    if (invalidated)
        ++stats_.l2_ctr_invalidations;
    state.erase(ctr_addr);
}

void
SecureSystem::handleL2Victim(unsigned core, const Victim &v)
{
    if (v.cls == LineClass::Counter) {
        noteL2CounterGone(core, v.addr, /*invalidated=*/false);
        return;
    }
    // Non-inclusive hierarchy: L2 evictions fill the LLC as victims.
    insertLlc(v.addr, v.cls, v.dirty, curTick());
}

void
SecureSystem::insertLlc(Addr pa, LineClass cls, bool dirty, Tick t,
                        bool unverified)
{
    at(t, [this, pa, cls, dirty, unverified] {
        auto victim = llc_.insert(pa, cls, dirty);
        // The flag reflects the newest copy: set for unverified DRAM
        // fills, cleared when a verified/plaintext copy arrives (e.g.
        // an L2 victim). Only the inclusive hierarchy reads it, so the
        // non-inclusive configs skip the extra set probe.
        if (cfg_.inclusive_llc)
            llc_.setFlag(pa, unverified);
        if (!victim)
            return;
        // Inclusive mode: evicting a data line from the LLC must also
        // invalidate any L2 copies.
        if (cfg_.inclusive_llc && victim->cls == LineClass::Data) {
            for (unsigned c = 0; c < cfg_.cores; ++c) {
                auto was_dirty = l2_[c].invalidate(victim->addr);
                if (was_dirty) {
                    ++stats_.inclusive_back_invalidations;
                    if (*was_dirty) {
                        mcHandleWriteback(victim->addr,
                                          curTick() + cfg_.noc_llc_mc);
                    }
                }
                l1_[c].invalidate(victim->addr);
            }
        }
        if (!victim->dirty)
            return;
        if (victim->cls == LineClass::Data) {
            mcHandleWriteback(victim->addr,
                              curTick() + cfg_.noc_llc_mc);
        } else {
            dramRequest(victim->addr, MemClass::Counter, true,
                        curTick() + cfg_.noc_llc_mc, nullptr);
        }
    });
}

void
SecureSystem::insertMcCache(Addr addr, LineClass cls, bool dirty, Tick t)
{
    at(t, [this, addr, cls, dirty] {
        auto victim = mc_cache_.insert(addr, cls, dirty);
        if (victim && victim->dirty) {
            dramRequest(victim->addr, MemClass::Counter, true, curTick(),
                        nullptr);
        }
    });
}

void
SecureSystem::invalidateStaleCounter(Addr ctr)
{
    // Fig 23 counts the L2 invalidations.
    if (cfg_.countersInL2()) {
        for (unsigned c = 0; c < cfg_.cores; ++c) {
            if (l2_[c].invalidate(ctr))
                noteL2CounterGone(c, ctr, /*invalidated=*/true);
        }
    }
    if (cfg_.countersInLlc())
        llc_.invalidate(ctr);
}

StatSet
RunResults::toStatSet() const
{
    StatSet s;
    s.set("ipc_total", total_ipc);
    s.set("duration_ns", duration_ns);
    s.set("instructions", static_cast<double>(instructions));

    for (const auto &[name, member] : kSysCounters)
        s.set(name, static_cast<double>(sys.*member));
    s.set("l2_miss_latency_avg_ns",
          safeRatio(sys.l2_miss_latency_sum_ns,
                    static_cast<double>(sys.l2_miss_latency_count)));
    s.set("faults_injected", static_cast<double>(faults.injectedAll()));
    s.set("faults_detected", static_cast<double>(faults.detectedAll()));
    s.set("faults_recovered", static_cast<double>(faults.recoveredAll()));
    s.set("faults_fatal", static_cast<double>(faults.fatalAll()));
    s.set("leak_undrained_events",
          static_cast<double>(leaks.undrained_events));
    s.set("leak_stuck_mshrs",
          static_cast<double>(leaks.stuck_mshr_entries));

    for (int c = 0; c < static_cast<int>(MemClass::NumClasses); ++c) {
        const std::string base = std::string("dram_") +
                                 memClassName(static_cast<MemClass>(c));
        s.set(base + "_reads", static_cast<double>(dram.reads[c]));
        s.set(base + "_writes", static_cast<double>(dram.writes[c]));
    }
    s.set("dram_row_hits", static_cast<double>(dram.row_hits));
    s.set("dram_row_misses", static_cast<double>(dram.row_misses));
    s.set("dram_row_conflicts",
          static_cast<double>(dram.row_conflicts));
    s.set("dram_bus_busy_ns", ticksToNs(dram.bus_busy));
    return s;
}

std::string
LeakReport::render() const
{
    if (clean()) {
        return detail::format("clean (%llu straggler events drained)",
                              static_cast<unsigned long long>(
                                  drained_events));
    }
    return detail::format(
        "%llu undrained events, %llu stuck MSHR entries, "
        "%llu queued DRAM requests (after draining %llu events)",
        static_cast<unsigned long long>(undrained_events),
        static_cast<unsigned long long>(stuck_mshr_entries),
        static_cast<unsigned long long>(queued_dram_requests),
        static_cast<unsigned long long>(drained_events));
}

// --------------------------------------------------------------- driving

void
SecureSystem::resetStats()
{
    // Integrity/recovery counters track the whole run (they pair with
    // the injector's report, which a stats reset must not lose).
    const SystemStats prev = stats_;
    stats_ = SystemStats{};
    stats_.integrity_detected = prev.integrity_detected;
    stats_.integrity_retried = prev.integrity_retried;
    stats_.integrity_recovered = prev.integrity_recovered;
    stats_.integrity_fatal = prev.integrity_fatal;
    dram_.resetStats();
    noc_.resetStats();
    mc_aes_.reset();
    for (auto &p : l2_aes_)
        p->reset();
    llc_.resetStats();
    mc_cache_.resetStats();
    for (auto &c : l1_)
        c.resetStats();
    for (auto &c : l2_)
        c.resetStats();
    if (ledger_)
        ledger_->resetStats();
    if (critpath_)
        critpath_->resetStats();
    if (resmon_)
        resmon_->beginWindow(curTick());
    measure_start_ = curTick();
}

void
SecureSystem::scheduleSeriesSample(Tick when)
{
    sim().post(when, [this] {
        if (!series_active_)
            return;
        series_->append(ticksToNs(curTick() - measure_start_),
                        metrics_.snapshot());
        scheduleSeriesSample(curTick() + series_->interval());
    }, /*priority=*/2, EventTag::Sim);
}

void
SecureSystem::collectResults(Count instructions)
{
    results_ = RunResults{};
    results_.instructions = instructions;
    results_.sys = stats_;
    results_.dram = dram_.aggregateStats();
    if (fault_)
        results_.faults = fault_->report();
    results_.duration_ns = ticksToNs(curTick() - measure_start_);
    for (const auto &core : cores_)
        results_.total_ipc += core->stats().ipc(cfg_.core.cyclePs());
}

void
SecureSystem::drainAndCheckLeaks()
{
    // Straggler events (in-flight fills the cores no longer wait for)
    // are normal; a queue that will not drain is not. The cap bounds a
    // pathological self-rescheduling leak.
    constexpr Count kDrainCap = 2'000'000;
    Count executed = 0;
    while (executed < kDrainCap && sim().events().step())
        ++executed;

    LeakReport &lk = results_.leaks;
    lk.drained_events = executed;
    lk.undrained_events = static_cast<Count>(sim().events().pending());
    auto count_mshrs = [&lk](const MshrFile &m) {
        m.forEachOutstanding(
            [&lk](Addr, unsigned) { ++lk.stuck_mshr_entries; });
    };
    for (const auto &m : l1_mshr_)
        count_mshrs(*m);
    for (const auto &m : l2_mshr_)
        count_mshrs(*m);
    count_mshrs(mc_ctr_mshr_);
    lk.queued_dram_requests = static_cast<Count>(dram_.queuedRequests());
    if (!lk.clean())
        warn("post-run leak check: %s", lk.render().c_str());

    // Recoveries that completed during the drain still belong to the
    // run: refresh the fault-facing counters in the snapshot.
    results_.sys.integrity_detected = stats_.integrity_detected;
    results_.sys.integrity_retried = stats_.integrity_retried;
    results_.sys.integrity_recovered = stats_.integrity_recovered;
    results_.sys.integrity_fatal = stats_.integrity_fatal;
    if (fault_)
        results_.faults = fault_->report();
}

void
SecureSystem::runPhase(Count budget)
{
    // Polls the Simulator's cooperative stop flag between events: a
    // campaign deadline or a SIGINT cancels the run at the next event
    // boundary instead of wedging the host thread.
    if (budget == 0)
        return;
    cores_running_ = cfg_.cores;
    for (auto &core : cores_) {
        core->start(budget, [this] {
            panic_if(cores_running_ == 0, "core finish underflow");
            --cores_running_;
        });
    }
    while (cores_running_ > 0 && !sim().stopRequested() &&
           sim().events().step()) {
    }
}

void
SecureSystem::run(Count warmup, Count measure)
{
    if (watchdog_)
        watchdog_->start();

    // ---- warmup phase
    if (warmup > 0) {
        const Tick warmup_start = curTick();
        runPhase(warmup);
        if (trace_sim_) {
            tracer_->span(obs::TraceCat::Sim, sim_track_, "warmup",
                          warmup_start, curTick());
        }
    }

    // ---- measurement phase
    resetStats();
    const Tick measure_phase_start = curTick();
    const bool skipped_measure = sim().stopRequested();
    if (!skipped_measure) {
        if (series_) {
            series_active_ = true;
            scheduleSeriesSample(measure_phase_start + series_->interval());
        }
        runPhase(measure);
        // The pending sample event (if any) drains as a no-op below.
        series_active_ = false;
        if (trace_sim_) {
            tracer_->span(obs::TraceCat::Sim, sim_track_, "measure",
                          measure_phase_start, curTick());
        }
    }
    collectResults(skipped_measure ? 0 : measure * cfg_.cores);
    const bool cancelled = skipped_measure ||
                           (sim().stopRequested() && cores_running_ > 0);

    // ---- post-run hardening: stop the watchdog (it must not keep the
    // drain alive), then drain stragglers and look for leaked state.
    // A cancelled run deliberately leaves work in flight, so the leak
    // check would only report the expected debris — skip it.
    if (watchdog_)
        watchdog_->stop();
    if (cfg_.leak_check && !cancelled)
        drainAndCheckLeaks();
    results_.partial = cancelled;

    // Snapshot the full registry once everything has settled; the dump
    // (--stats-json) is deterministic for a fixed seed.
    if (resmon_)
        resmon_->endWindow(curTick());
    results_.metrics = metrics_.snapshot();
}

// ------------------------------------------------ functional fast-forward

void
SecureSystem::fastForward(Count refs_per_core)
{
    panic_if(cores_running_ != 0, "fastForward during a detailed phase");
    panic_if(fault_ != nullptr,
             "functional fast-forward cannot model fault campaigns");
    // Functional mode: the shared fill layer applies every fill at once
    // and turns its DRAM writes into row touches. No event runs, so
    // curTick() stands still throughout.
    functional_ = true;
    // Round-robin interleave across cores, like concurrent execution.
    std::vector<std::size_t> pos(cfg_.cores);
    for (unsigned c = 0; c < cfg_.cores; ++c)
        pos[c] = cores_[c]->tracePos();
    for (Count i = 0; i < refs_per_core; ++i) {
        for (unsigned c = 0; c < cfg_.cores; ++c) {
            const auto &trace = workload_->per_core[c];
            std::size_t p = pos[c];
            if (p >= trace.size())
                p %= trace.size();
            const MemRef &ref = trace[p];
            pos[c] = p + 1;
            ffwdHandleRef(c, translate(c, ref.vaddr), ref.is_write);
        }
    }
    for (unsigned c = 0; c < cfg_.cores; ++c)
        cores_[c]->setTracePos(pos[c]);
    functional_ = false;
}

void
SecureSystem::ffwdHandleRef(unsigned core, Addr pa, bool is_write)
{
    if (is_write)
        ++stats_.data_writes;
    else
        ++stats_.data_reads;

    // Same outcome as read()/write(): store hits are not counted.
    if (l1_[core].access(pa, LineClass::Data, is_write)) {
        if (!is_write)
            ++stats_.l1_hits;
        return;
    }
    if (cfg_.dynamic_emcc_off)
        sampleIntensity(core);
    if (l2_[core].access(pa, LineClass::Data, is_write)) {
        ++stats_.l2_data_hits;
        insertL1(core, pa, is_write);
        return;
    }
    ++stats_.l2_data_misses;

    // ---- EMCC counter path: the speculative fetch resolves
    // instantly, so the counter is resident in L2 before the data
    // outcome is known — the same end state the timed path reaches.
    const Tick now = curTick();
    const Addr ctr = meta_.counterBlockAddr(pa);
    const bool emcc_active =
        cfg_.countersInL2() &&
        !(cfg_.dynamic_emcc_off && !intensity_[core].emcc_on);
    bool emcc_ctr_in_l2 = false;
    if (emcc_active) {
        if (l2_[core].access(ctr, LineClass::Counter, false)) {
            ++stats_.emcc_l2_ctr_hits;
            emcc_ctr_in_l2 = true;
        } else {
            ++stats_.emcc_l2_ctr_misses;
            ++stats_.emcc_ctr_accesses_to_llc;
            if (!llc_.access(ctr, LineClass::Counter, false)) {
                ffwdMcCounterAccess(pa, /*count_buckets=*/true,
                                    /*llc_known_miss=*/true);
                insertLlc(ctr, LineClass::Counter, false, now);
            }
            insertL2Counter(core, ctr, now);
            emcc_ctr_in_l2 = true;
        }
    }

    // ---- data in LLC
    if (llc_.access(pa, LineClass::Data, false)) {
        ++stats_.llc_data_hits;
        if (cfg_.inclusive_llc && llc_.getFlag(pa)) {
            // Inclusive-mode unverified copy: verified on promotion,
            // either at the L2 (counter resident) or by the MC.
            ++stats_.llc_unverified_hits;
            llc_.setFlag(pa, false);
            if (emcc_ctr_in_l2) {
                ++stats_.decrypted_at_l2;
            } else {
                ++stats_.decrypted_at_mc;
                ffwdMcCounterAccess(pa, /*count_buckets=*/false);
            }
        }
        insertL2Data(core, pa, /*dirty=*/false, now);
        insertL1(core, pa, is_write);
        return;
    }
    ++stats_.llc_data_misses;
    if (cfg_.dynamic_emcc_off)
        ++intensity_[core].dram_fills;

    if (emcc_ctr_in_l2) {
        // The counter in L2 is genuinely used for this LLC miss.
        if (bool *used = l2_ctr_state_[core].find(ctr))
            *used = true;
        ++stats_.decrypted_at_l2;
    } else if (cfg_.secure()) {
        // The MC fetches + verifies: under EMCC only in a dynamic-off
        // phase, and like the detailed path EMCC counts no MC buckets.
        const bool l2_ctrs = cfg_.countersInL2();
        if (l2_ctrs)
            ++stats_.decrypted_at_mc;
        ffwdMcCounterAccess(pa, /*count_buckets=*/!l2_ctrs);
    }

    dram_.functionalTouch(pa, now, MemClass::Data, /*is_write=*/false);
    if (cfg_.inclusive_llc) {
        // The response allocates in the LLC on its way up, unverified
        // when the L2 does the crypto (mirrors joinTryFinish).
        insertLlc(pa, LineClass::Data, false, now,
                  /*unverified=*/emcc_ctr_in_l2);
    }
    insertL2Data(core, pa, /*dirty=*/false, now);
    insertL1(core, pa, is_write);
}

void
SecureSystem::ffwdMcCounterAccess(Addr pa, bool count_buckets,
                                  bool llc_known_miss)
{
    const Tick now = curTick();
    const Addr ctr = meta_.counterBlockAddr(pa);
    if (mc_cache_.access(ctr, LineClass::Counter, false)) {
        if (count_buckets)
            ++stats_.mc_ctr_hits;
        return;
    }
    // The EMCC path has already probed the LLC for this counter block
    // and missed; re-probing would only repeat the miss (and bill it to
    // the array's stats twice).
    if (cfg_.countersInLlc() && !cfg_.countersInL2())
        ++stats_.baseline_ctr_accesses_to_llc;
    const bool in_llc = !llc_known_miss && cfg_.countersInLlc() &&
                        llc_.access(ctr, LineClass::Counter, false);
    if (in_llc) {
        if (count_buckets)
            ++stats_.llc_ctr_hits;
    } else {
        if (count_buckets)
            ++stats_.llc_ctr_misses;
        // Fetch from DRAM and verify via the tree: walk up until a
        // cached (already verified) ancestor, as mcFetchCounter does.
        dram_.functionalTouch(ctr, now, MemClass::Counter, false);
        for (unsigned lvl = 1; lvl < meta_.numLevels(); ++lvl) {
            const Addr node = meta_.treeNodeAddr(lvl, pa);
            if (mc_cache_.access(node, LineClass::TreeNode, false))
                break;
            if (cfg_.countersInLlc() &&
                llc_.access(node, LineClass::TreeNode, false)) {
                insertMcCache(node, LineClass::TreeNode, false, now);
                break;
            }
            dram_.functionalTouch(node, now, MemClass::Counter, false);
            insertMcCache(node, LineClass::TreeNode, false, now);
            if (cfg_.countersInLlc())
                insertLlc(node, LineClass::TreeNode, false, now);
        }
        if (cfg_.countersInLlc())
            insertLlc(ctr, LineClass::Counter, false, now);
    }
    insertMcCache(ctr, LineClass::Counter, false, now);
}

void
SecureSystem::ffwdMcWriteback(Addr pa)
{
    dram_.functionalTouch(pa, curTick(), MemClass::Data, /*is_write=*/true);
    if (!cfg_.secure())
        return;

    // The MC needs the counter block resident (and dirty) to bump it.
    const Addr ctr = meta_.counterBlockAddr(pa);
    if (!mc_cache_.access(ctr, LineClass::Counter, true)) {
        ffwdMcCounterAccess(pa, /*count_buckets=*/false);
        mc_cache_.access(ctr, LineClass::Counter, true);   // mark dirty
    }

    const auto wr = design_->bumpCounter(pa);
    if (wr.overflow) {
        // The re-encryption traffic is counted, but its row effects
        // are not modelled: touching rows here would move every
        // sampled run's detailed windows.
        ++stats_.overflows;
        const std::uint64_t coverage = design_->coverageBytes();
        const Addr base{(pa / coverage) * coverage};
        dram_.functionalCount(base, MemClass::OverflowL0, false,
                              wr.reencrypt_blocks);
        dram_.functionalCount(base, MemClass::OverflowL0, true,
                              wr.reencrypt_blocks);
    }
    invalidateStaleCounter(ctr);
}

// ---------------------------------------------------- sampled simulation

void
SecureSystem::drainQuiesce()
{
    // Complete every in-flight fill so a window boundary sees fully
    // quiesced state (empty event queue, MSHRs and DRAM queues). The
    // cap bounds a pathological self-rescheduling leak.
    constexpr Count kDrainCap = 20'000'000;
    Count executed = 0;
    while (executed < kDrainCap && !sim().stopRequested() &&
           sim().events().step())
        ++executed;
    panic_if(executed >= kDrainCap,
             "phase-boundary drain did not quiesce (%llu events)",
             static_cast<unsigned long long>(executed));
}

void
SecureSystem::runSampled(const SampleSpec &spec)
{
    panic_if(!spec.enabled(), "runSampled needs at least one window");
    panic_if(fault_ != nullptr,
             "sampled simulation cannot run fault campaigns");
    panic_if(series_ != nullptr,
             "sampled simulation cannot drive a stats series");
    // The watchdog stays disarmed: phases are short, and its perpetual
    // self-rescheduling check event would defeat the boundary drains.

    std::vector<SampleWindow> wins;
    wins.reserve(spec.windows);
    bool cancelled = false;

    for (unsigned w = 0; w < spec.windows; ++w) {
        if (sim().stopRequested()) {
            cancelled = true;
            break;
        }
        const Count ff = (w == 0 && spec.ffwd_first > 0) ? spec.ffwd_first
                                                         : spec.ffwd_refs;
        if (ff > 0)
            fastForward(ff);

        // Detailed warm-up slice: re-establishes the event-level state
        // (MSHR overlap, DRAM queue pressure, AES pipelining) the
        // functional phase cannot carry. Its stats are discarded by the
        // resetStats below.
        runPhase(spec.warm);
        drainQuiesce();
        if (sim().stopRequested()) {
            cancelled = true;
            break;
        }
        if (spec.checkpoint_roundtrip)
            checkpointRoundtrip();

        // ---- measured window
        resetStats();
        runPhase(spec.measure);
        drainQuiesce();
        if (sim().stopRequested()) {
            cancelled = true;
            break;
        }

        SampleWindow sw;
        for (const auto &core : cores_)
            sw.ipc += core->stats().ipc(cfg_.core.cyclePs());
        sw.l2_miss_ns =
            safeRatio(stats_.l2_miss_latency_sum_ns,
                      static_cast<double>(stats_.l2_miss_latency_count));
        const double ctr_hits = static_cast<double>(
            stats_.mc_ctr_hits + stats_.llc_ctr_hits +
            stats_.emcc_l2_ctr_hits);
        sw.ctr_hit_rate = safeRatio(
            ctr_hits,
            ctr_hits + static_cast<double>(stats_.llc_ctr_misses));
        sw.duration_ns = ticksToNs(curTick() - measure_start_);
        wins.push_back(sw);
    }

    // results_.sys/dram reflect the final completed window; the
    // run-level aggregates become the sampled estimators.
    collectResults(static_cast<Count>(wins.size()) * spec.measure *
                   cfg_.cores);
    results_.partial = cancelled;
    double ipc_sum = 0.0;
    double dur_sum = 0.0;
    for (const SampleWindow &sw : wins) {
        ipc_sum += sw.ipc;
        dur_sum += sw.duration_ns;
    }
    if (!wins.empty())
        results_.total_ipc = ipc_sum / static_cast<double>(wins.size());
    results_.duration_ns = dur_sum;

    if (resmon_)
        resmon_->endWindow(curTick());
    results_.metrics = metrics_.snapshot();
    insertSampleMetrics(results_.metrics, wins);
}

void
SecureSystem::insertSampleMetrics(
    obs::MetricsSnapshot &snap, const std::vector<SampleWindow> &wins) const
{
    // Post-hoc insertion keeps sample.* out of the registry, so runs
    // without --sample dump byte-identical snapshots to older builds.
    const std::size_t k = wins.size();
    snap.counters["sample.windows"] = static_cast<Count>(k);
    auto fold = [&snap, k](const std::string &name, auto get) {
        double sum = 0.0;
        for (std::size_t i = 0; i < k; ++i) {
            const double v = get(i);
            snap.formulas[name + ".win" + std::to_string(i)] = v;
            sum += v;
        }
        const double mean = k > 0 ? sum / static_cast<double>(k) : 0.0;
        double var = 0.0;
        for (std::size_t i = 0; i < k; ++i) {
            const double d = get(i) - mean;
            var += d * d;
        }
        // Sample variance (n-1); one window means no spread estimate.
        const double sd =
            k > 1 ? std::sqrt(var / static_cast<double>(k - 1)) : 0.0;
        const double half = k > 0 ? sd / std::sqrt(static_cast<double>(k))
                                  : 0.0;
        snap.formulas[name + ".mean"] = mean;
        snap.formulas[name + ".sd"] = sd;
        // Normal-approximation CI half-widths (SMARTS-style reporting).
        snap.formulas[name + ".ci50"] = 0.6745 * half;
        snap.formulas[name + ".ci95"] = 1.9600 * half;
        snap.formulas[name + ".ci99"] = 2.5758 * half;
    };
    fold("sample.ipc", [&wins](std::size_t i) { return wins[i].ipc; });
    fold("sample.l2_miss_ns",
         [&wins](std::size_t i) { return wins[i].l2_miss_ns; });
    fold("sample.ctr_hit_rate",
         [&wins](std::size_t i) { return wins[i].ctr_hit_rate; });
    fold("sample.duration_ns",
         [&wins](std::size_t i) { return wins[i].duration_ns; });
}

// ----------------------------------------------------------- checkpoints

template <typename Self, typename F>
void
SecureSystem::forEachSection(Self &self, F &&f)
{
    f("mapper", self.mapper_);
    f("design", *self.design_);
    f("dram", self.dram_);
    f("aes.mc", self.mc_aes_);
    f("llc", self.llc_);
    f("mc_ctr", self.mc_cache_);
    for (unsigned c = 0; c < self.cfg_.cores; ++c) {
        const std::string n = std::to_string(c);
        f("core." + n, *self.cores_[c]);
        f("l1." + n, self.l1_[c]);
        f("l2." + n, self.l2_[c]);
        f("aes.l2." + n, *self.l2_aes_[c]);
    }
}

Checkpoint
SecureSystem::saveCheckpoint() const
{
    // Only quiesced boundaries are checkpointable: anything in flight
    // would be lost (events and pooled continuations cannot be
    // serialized), so saving then is a programming error.
    panic_if(cores_running_ != 0 || sim().events().pending() != 0,
             "checkpoint with events in flight");
    panic_if(mc_ctr_mshr_.inUse() != 0,
             "checkpoint with MC counter MSHR entries in use");
    panic_if(join_pool_.inUse() != 0 || walk_pool_.inUse() != 0,
             "checkpoint with live join/walk records");
    panic_if(!overflow_active_.empty() || !overflow_queued_.empty(),
             "checkpoint with overflow jobs in flight");
    for (unsigned c = 0; c < cfg_.cores; ++c) {
        panic_if(l1_mshr_[c]->inUse() != 0 || l2_mshr_[c]->inUse() != 0,
                 "checkpoint with core %u MSHR entries in use", c);
        panic_if(!pending_store_fill_[c].empty(),
                 "checkpoint with pending store fills on core %u", c);
        panic_if(!l2_ctr_inflight_[c].empty(),
                 "checkpoint with in-flight counter fetches on core %u",
                 c);
    }

    Checkpoint ck;
    {
        CheckpointWriter w;
        w.tag(0x5e5e0001u);
        for (const std::uint64_t s : rng_.state())
            w.u64(s);
        w.pod(stats_);
        w.pod(measure_start_);
        w.u64(intensity_.size());
        for (const IntensityState &st : intensity_)
            w.pod(st);
        w.u64(l2_ctr_state_.size());
        for (const auto &state : l2_ctr_state_) {
            std::vector<std::pair<Addr, bool>> entries;
            entries.reserve(state.size());
            state.forEach([&entries](Addr a, bool used) {
                entries.emplace_back(a, used);
            });
            std::sort(entries.begin(), entries.end());
            w.u64(entries.size());
            for (const auto &[a, used] : entries) {
                w.pod(a);
                w.boolean(used);
            }
        }
        ck.add("sys", std::move(w));
    }
    forEachSection(*this, [&ck](const std::string &name,
                                const auto &part) {
        CheckpointWriter w;
        part.saveState(w);
        ck.add(name, std::move(w));
    });
    return ck;
}

void
SecureSystem::restoreCheckpoint(const Checkpoint &ck)
{
    {
        CheckpointReader r = ck.reader("sys");
        r.expectTag(0x5e5e0001u);
        std::array<std::uint64_t, 4> s{};
        for (auto &word : s)
            word = r.u64();
        rng_.setState(s);
        stats_ = r.pod<SystemStats>();
        measure_start_ = r.pod<Tick>();
        const std::uint64_t ni = r.u64();
        panic_if(ni != intensity_.size(), "checkpoint core-count drift");
        for (auto &st : intensity_)
            st = r.pod<IntensityState>();
        const std::uint64_t nc = r.u64();
        panic_if(nc != l2_ctr_state_.size(),
                 "checkpoint core-count drift");
        for (auto &state : l2_ctr_state_) {
            state.clear();
            const std::uint64_t n = r.u64();
            for (std::uint64_t i = 0; i < n; ++i) {
                const Addr a = r.pod<Addr>();
                state.emplace(a, r.boolean());
            }
        }
        panic_if(!r.done(), "trailing bytes in sys checkpoint section");
    }
    forEachSection(*this, [&ck](const std::string &name, auto &part) {
        CheckpointReader r = ck.reader(name);
        part.restoreState(r);
    });
}

void
SecureSystem::scrambleForRoundtrip()
{
    // Clobber precisely the state checkpoints cover — and only that
    // state — so a restore omission shows up as a stats divergence in
    // the cli.checkpoint_identity byte-compare. (Window-scoped stats
    // like AES/ledger counters are reset right after the roundtrip, so
    // they neither need scrambling nor restoring.)
    for (auto &c : l1_)
        c.flushAll();
    for (auto &c : l2_)
        c.flushAll();
    llc_.flushAll();
    mc_cache_.flushAll();
    rng_.setState({0xdeadbeefull, 0xfeedfaceull, 0x12345678ull, 0x1ull});
    design_->bumpCounter(Addr{0});
    mapper_.translate(Addr{1ull << 39});   // mutates table + mapper RNG
    dram_.functionalTouch(Addr{0}, curTick(), MemClass::Data, false);
    stats_ = SystemStats{};
    for (auto &st : intensity_)
        st = IntensityState{};
    for (auto &state : l2_ctr_state_)
        state.clear();
    for (auto &core : cores_)
        core->setTracePos(0);
}

void
SecureSystem::checkpointRoundtrip()
{
    const Checkpoint ck = saveCheckpoint();
    scrambleForRoundtrip();
    restoreCheckpoint(ck);
}

} // namespace emcc
